package vcpu

import (
	"fmt"
	"math/bits"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// Privilege levels of the (virtual) architecture.
const (
	PrivU uint8 = 0
	PrivS uint8 = 1
)

// Stats counts interpreter activity.
type Stats struct {
	Exits      [NumExitReasons]uint64
	Traps      uint64 // architectural trap entries (direct or injected)
	Interrupts uint64 // interrupts delivered directly (full-privilege mode)
}

// CPU is one GV64 hart.
type CPU struct {
	X    [32]uint64
	PC   uint64
	Priv uint8 // virtual privilege: PrivU or PrivS
	CSR  CSRFile

	Mem *mem.GuestPhys
	MMU *mmu.Context

	// IsMMIO reports whether a guest-physical address belongs to a device
	// window; such accesses exit with ExitMMIO. Nil means no devices.
	IsMMIO func(gpa uint64) bool

	// Deprivileged selects the trap-and-emulate / paravirtual regime: all
	// privileged instructions and guest-visible traps exit to the VMM.
	Deprivileged bool

	// Venv is the value the guest reads from the CSRVenv discovery register.
	Venv uint64

	Costs   Costs
	Cycles  uint64 // simulated time, 1 cycle = 1 ns
	Instret uint64

	// ICache is the fast engine's decoded-instruction block cache, with the
	// superblock, chain and trace layers built on it. It is also the engine
	// seam: New attaches one and Run executes the fast engine; NewReference
	// leaves it nil and Run executes the reference interpreter (ref.go). The
	// fast engine is architecturally invisible — guest state, cycle
	// accounting and every simulation statistic match the reference — so the
	// choice only changes host-side speed.
	ICache *ICache

	// Exit is the exit record: Run writes it when it returns and the VMM
	// reads the detail of the returned reason from it; it stays valid until
	// the next Run. Internal helpers return a small status and write the
	// record only when the CPU actually exits (see dispatch.go), so neither
	// the per-instruction path nor Run's return copies an Exit.
	Exit Exit

	// codeGfn is the guest-physical page a superblock is executing from
	// (mem.NoFrame outside blocks): storeExec compares every retired
	// store's page against it so self-modifying code ends the block. The
	// fold lets blocks dispatch stores through the slot's decode-resolved
	// executor like every other instruction; outside blocks the sentinel
	// never matches and the status is plain stOK.
	codeGfn uint64

	// Block-chain arm state: when a chain source retires — a pure
	// control-transfer terminator (isa.IsChainSource) or the page-boundary
	// pseudo-terminator of a superblock — the source slot is parked here.
	// The next fetch either consumes a matching recorded link (skipping the
	// icache map lookup and replaying the memoized translation exactly) or
	// records a fresh link from the real fetch it performs instead. Stale
	// armed state — left over from a trap, interrupt or VM exit landing
	// between arm and fetch — is harmless: consumption proves the link
	// exact (successor PC, page version, translation snapshot) before use,
	// and a mismatched record just parks a link that will not validate
	// until the observed successor recurs.
	chainPage  *decodedPage
	chainSlot  uint16
	chainArmed bool

	Stats Stats
}

// New creates a CPU running the fast engine over the given memory and
// translation context.
func New(m *mem.GuestPhys, ctx *mmu.Context) *CPU {
	return &CPU{Mem: m, MMU: ctx, Costs: DefaultCosts(), codeGfn: mem.NoFrame, ICache: NewICache()}
}

// Reg returns register r (x0 reads as zero by construction).
func (c *CPU) Reg(r uint8) uint64 { return c.X[r] }

// SetReg writes register r, ignoring writes to x0.
func (c *CPU) SetReg(r uint8, v uint64) {
	if r != 0 {
		c.X[r] = v
	}
}

// AddCycles charges VMM-side emulation work to the guest's clock.
func (c *CPU) AddCycles(n uint64) { c.Cycles += n }

// SkipInstr advances PC past a 4-byte instruction the VMM emulated on the
// guest's behalf (MMIO, PT writes, hypercalls).
func (c *CPU) SkipInstr() { c.PC += 4 }

// exit counts the exit just written to the record and returns stExit, the
// status of every helper that exits.
func (c *CPU) exit() int {
	c.Stats.Exits[c.Exit.Reason]++
	return stExit
}

// vmExit is exit for an exit that switches to the VMM: it also charges the
// world-switch cost.
func (c *CPU) vmExit() int {
	c.Cycles += c.Costs.ExitRound
	return c.exit()
}

// FinishMMIORead completes a load that exited with ExitMMIO: the VMM passes
// the device's value, and the CPU performs the architectural sign/zero
// extension into the destination register.
func (c *CPU) FinishMMIORead(info MMIOInfo, value uint64) {
	v := value
	switch info.Size {
	case 1:
		if info.Signed {
			v = uint64(int64(int8(v)))
		} else {
			v = uint64(uint8(v))
		}
	case 2:
		if info.Signed {
			v = uint64(int64(int16(v)))
		} else {
			v = uint64(uint16(v))
		}
	case 4:
		if info.Signed {
			v = uint64(int64(int32(v)))
		} else {
			v = uint64(uint32(v))
		}
	}
	c.SetReg(info.Rd, v)
}

// guestTrap delivers a guest-visible trap: directly when fully privileged
// (stTrap: control redirected in place), as an ExitGuestTrap for the VMM to
// inject when deprivileged (stExit).
func (c *CPU) guestTrap(cause, tval uint64) int {
	if c.Deprivileged {
		c.Exit = Exit{Reason: ExitGuestTrap, Cause: cause, Tval: tval}
		return c.vmExit()
	}
	c.InjectTrap(cause, tval)
	return stTrap
}

// illegal is guestTrap for illegal-instruction traps.
func (c *CPU) illegal(raw uint32) int {
	return c.guestTrap(isa.CauseIllegal, uint64(raw))
}

// fetchTranslate translates an instruction fetch via the MMU's memoized
// fetch path, converting its fault taxonomy into either a guest trap or a VM
// exit: cycle charges, faults and statistics identical to a plain Translate,
// less host work while the fetch stream stays on one page. The status is
// stOK with the gpa, or translateFault's.
func (c *CPU) fetchTranslate(va uint64) (uint64, int) {
	gpa, refs, fault := c.MMU.TranslateFetch(va, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, stOK
	}
	return 0, c.translateFault(va, isa.AccExec, fault)
}

// translateFault converts a translation fault of both engines: stTrap when
// a guest trap was delivered in place (the instruction restarts at the
// handler), stExit when the exit record was written.
func (c *CPU) translateFault(va uint64, acc isa.Access, fault *mmu.Fault) int {
	switch fault.Kind {
	case mmu.FaultGuest:
		return c.guestTrap(fault.Cause, va)
	case mmu.FaultShadowMiss:
		c.Exit = Exit{Reason: ExitShadowMiss, VA: va, Access: acc}
	default: // mmu.FaultHost
		c.Exit = Exit{Reason: ExitHostFault, VA: va, Access: acc, Mem: *fault.Mem}
	}
	return c.vmExit()
}

// memFaultExit converts a guest-physical fault f of an access to va.
func (c *CPU) memFaultExit(va uint64, acc isa.Access, f mem.Fault) int {
	c.Exit = Exit{Reason: ExitHostFault, VA: va, Access: acc, Mem: f}
	return c.vmExit()
}

// mmioExit exits for the device access m of the instruction at the PC,
// which the PC has already advanced past.
func (c *CPU) mmioExit(m MMIOInfo) int {
	c.PC += 4
	c.Exit = Exit{Reason: ExitMMIO, MMIO: m}
	return c.vmExit()
}

// privExit exits for the privileged instruction in, for the VMM to emulate.
func (c *CPU) privExit(in isa.Inst) int {
	c.Exit = Exit{Reason: ExitPriv, Inst: in}
	return c.vmExit()
}

// Run interprets instructions until the cycle budget is exhausted or an exit
// condition arises. The budget is a cycle count relative to the current
// clock. The engine is chosen once, here: a CPU without an ICache is the
// reference interpreter (ref.go); everything below is the fast engine —
// chain → trace → superblock → threaded executor — with no engine selection
// inside the loop.
//
//govisor:worker
func (c *CPU) Run(budget uint64) ExitReason {
	ic := c.ICache
	if ic == nil {
		return c.runRef(budget)
	}
	deadline := c.Cycles + budget
	for {
		if c.Cycles >= deadline {
			c.Exit = Exit{Reason: ExitQuantum}
			c.exit()
			return ExitQuantum
		}
		// Timer: STIP latches when the clock passes STIMECMP.
		if cmp := c.CSR.Stimecmp; cmp != 0 && c.Cycles >= cmp && c.CSR.Sip&(1<<isa.IntTimer) == 0 {
			c.CSR.Sip |= 1 << isa.IntTimer
		}
		if irq := c.PendingInterrupt(); irq != 0 {
			if c.Deprivileged {
				c.Exit = Exit{Reason: ExitIntrWindow}
				c.vmExit()
				return ExitIntrWindow
			}
			c.Stats.Interrupts++
			c.InjectTrap(isa.CauseInterrupt|irq, 0)
			continue
		}

		// Fetch. Fetches that stay on a predecoded page with an unchanged
		// content version skip the guest-RAM read and isa.Decode; translation
		// still runs (via the MMU's exact memoized fetch path) so the TLB's
		// LRU state, the walk cycle charges and every statistic evolve exactly
		// as under the reference interpreter.
		if c.PC&3 != 0 {
			if c.guestTrap(isa.CauseInstrMisaligned, c.PC) == stExit {
				return c.Exit.Reason
			}
			continue
		}
		var in isa.Inst
		var raw uint32
		var fn execFn
		var p *decodedPage
		var i, gfn, gpa uint64
		var recSrc *decodedPage
		var recSlot uint16
		var hitLink *chainLink
		if c.chainArmed {
			src, slot := c.chainPage, c.chainSlot
			c.chainArmed = false
			// Chain consume: a link recorded for the slot that just
			// redirected control to this PC proves this fetch's outcome
			// (followLink replays exactly the bookkeeping of the real
			// TranslateFetch and icache lookup below), so both are skipped.
			if l := src.chainAt(slot, c.PC); c.followLink(l) {
				p, i, gfn = l.page, uint64(l.tslot), l.gfn
				hitLink = l
			} else {
				ic.Stats.ChainMisses++
				recSrc, recSlot = src, slot
			}
		}
		if p == nil {
			var st int
			if gpa, st = c.fetchTranslate(c.PC); st != stOK {
				if st == stExit {
					return c.Exit.Reason
				}
				continue
			}
			gfn = gpa >> isa.PageShift
			i = (gpa & isa.PageMask) >> 2
			p = ic.lookup(c.Mem, gfn)
			if p != nil && recSrc != nil {
				// Chain record: the real fetch just resolved the armed
				// slot's successor; park it with the translation snapshot.
				ic.setChain(recSrc, recSlot, c.PC, p, gfn, uint16(i), c.MMU.SnapFetch())
			}
		}
		if p != nil {
			// Superblock dispatch: a straight-line run of ≥2 decoded
			// instructions executes as one unit when no event boundary
			// (quantum, timer latch, interrupt window) can land inside its
			// cycle span; otherwise fall through to the exact
			// per-instruction path below.
			if p.blkLen[i] > 1 {
				if hitLink != nil {
					// Trace layer (trace.go): a validated chain consume is
					// the only way in. A link that already carries a trace
					// dispatches it (one entry check, whole-span admission,
					// batched run); otherwise the consume heats the link
					// toward promotion.
					if tr := hitLink.tr; tr != nil {
						done, dispatched := c.runTrace(tr, deadline)
						if dispatched {
							if done {
								return c.Exit.Reason
							}
							continue
						}
					} else if hitLink.heat < traceHotThreshold {
						hitLink.heat++
						if hitLink.heat == traceHotThreshold {
							c.formTrace(hitLink)
						}
					}
				}
				done, dispatched := c.runBlock(p, i, gfn, deadline)
				if dispatched {
					if done {
						return c.Exit.Reason
					}
					continue
				}
			}
			// Lazy slot decode, spelled out here because the compiler will
			// not inline it as a method and this is the hottest line in the
			// simulator. The threaded executor is resolved once, here, so
			// steady-state fetches load a direct func pointer instead of
			// re-inspecting the opcode.
			if p.valid[i>>6]&(1<<(i&63)) == 0 {
				p.ins[i] = isa.Decode(p.raw[i])
				p.fn[i] = execTable.For(p.ins[i].Op)
				p.valid[i>>6] |= 1 << (i & 63)
			}
			in, raw, fn = p.ins[i], p.raw[i], p.fn[i]
			if isa.IsChainSource(in.Op) {
				// Arm the slot so the post-redirect fetch can consume or
				// record its chain link. Chain sources never trap and never
				// exit, so the arm is consumed on the very next loop
				// iteration in the common case.
				c.chainPage, c.chainSlot, c.chainArmed = p, uint16(i), true
			}
		} else {
			word, st := c.fetchWord(gpa)
			if st == stExit {
				return c.Exit.Reason
			}
			if st == stTrap {
				continue
			}
			raw = uint32(word)
			in = isa.Decode(raw)
			fn = execTable.For(in.Op)
			ic.fill(c.Mem, gfn)
			if recSrc != nil {
				ic.setChain(recSrc, recSlot, c.PC, ic.cur, gfn, uint16(i), c.MMU.SnapFetch())
			}
		}
		// The executor table is total over valid opcodes (TestExecTableComplete,
		// FuzzDecode), so past this check fn is never nil.
		if !in.Op.Valid() {
			if c.illegal(raw) == stExit {
				return c.Exit.Reason
			}
			continue
		}
		c.Cycles += c.Costs.Instr
		c.Instret++
		if fn(c, in, raw) == stExit {
			return c.Exit.Reason
		}
	}
}

// fetchWord performs the fast engine's instruction read at gpa on an icache
// miss: the executing-from-device-space check and the guest-physical read,
// with the reference interpreter's fault taxonomy (refFetch). The status is
// stOK with the word, stTrap when a guest trap was delivered in place, or
// stExit.
func (c *CPU) fetchWord(gpa uint64) (uint64, int) {
	if c.IsMMIO != nil && !c.Mem.Contains(gpa) && c.IsMMIO(gpa) {
		// Executing out of device space is an access fault.
		return 0, c.guestTrap(isa.CauseInstrAccess, c.PC)
	}
	word, k := c.Mem.ReadUintFill(gpa, 4)
	switch k {
	case mem.FaultNone:
		return word, stOK
	case mem.FaultBeyondRAM:
		return 0, c.guestTrap(isa.CauseInstrAccess, c.PC)
	}
	return 0, c.memFaultExit(c.PC, isa.AccExec, mem.Fault{Kind: k, GPA: gpa, Access: isa.AccRead})
}

// EmulatePrivileged is the VMM-side emulation of an instruction that exited
// with ExitPriv: it applies the same architectural semantics the hardware
// would, against the virtual CSR file, and advances the PC. The emulation
// work itself is charged separately by the caller.
func (c *CPU) EmulatePrivileged(in isa.Inst) error {
	switch in.Op {
	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
		addr := uint16(in.Imm)
		old, known := c.ReadCSR(addr)
		if !known {
			return fmt.Errorf("vcpu: emulate access to unknown CSR %#x", addr)
		}
		src := c.X[in.Rs1]
		newVal := src
		write := true
		switch in.Op {
		case isa.OpCSRRS:
			newVal = old | src
			write = in.Rs1 != 0
		case isa.OpCSRRC:
			newVal = old &^ src
			write = in.Rs1 != 0
		}
		if write && !c.WriteCSR(addr, newVal) {
			return fmt.Errorf("vcpu: emulated write to read-only CSR %s", isa.CSRName(addr))
		}
		c.SetReg(in.Rd, old)
		c.PC += 4
		return nil
	case isa.OpSRET:
		c.ExecuteSRET()
		return nil
	case isa.OpSFENCE:
		c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
		c.PC += 4
		return nil
	default:
		return fmt.Errorf("vcpu: cannot emulate %s", isa.Disasm(in))
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mulh64(a, b int64) (hi, lo int64) {
	uhi, ulo := bits.Mul64(uint64(a), uint64(b))
	h := int64(uhi)
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return h, int64(ulo)
}

func div64(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == -1<<63 && b == -1:
		return a
	default:
		return a / b
	}
}

func rem64(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == -1<<63 && b == -1:
		return 0
	default:
		return a % b
	}
}

func divu64(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remu64(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
