package vcpu

import (
	"encoding/binary"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// The reference interpreter: the executable semantics of GV64. One loop
// iteration is one instruction — event checks, a plain MMU.Translate, a
// plain guest-RAM read, isa.Decode, and one rule per opcode in execute —
// with no decoded-instruction cache, no translation or resolution memos and
// no batching. It is written to be read, and it is the oracle: the fast
// engine (CPU.Run, dispatch.go, superblock.go, trace.go) is shown to refine
// it by the differential suites, which demand every guest-visible byte,
// simulated cycle and statistic identical between the two. It shares the
// architectural helpers (traps, CSRs, exits, the fault taxonomy) with the
// fast engine but none of its execution machinery: execute is its own
// opcode switch, not the executor table.

// NewReference creates a CPU running the reference interpreter over the
// given memory and translation context.
func NewReference(m *mem.GuestPhys, ctx *mmu.Context) *CPU {
	return &CPU{Mem: m, MMU: ctx, Costs: DefaultCosts()}
}

// runRef is Run for a CPU without an ICache.
//
//govisor:worker
func (c *CPU) runRef(budget uint64) Exit {
	deadline := c.Cycles + budget
	for {
		if c.Cycles >= deadline {
			return c.exit(Exit{Reason: ExitQuantum})
		}
		// Timer: STIP latches when the clock passes STIMECMP.
		if cmp := c.CSR.Stimecmp; cmp != 0 && c.Cycles >= cmp && c.CSR.Sip&(1<<isa.IntTimer) == 0 {
			c.CSR.Sip |= 1 << isa.IntTimer
		}
		if irq := c.PendingInterrupt(); irq != 0 {
			if c.Deprivileged {
				return c.vmExit(Exit{Reason: ExitIntrWindow})
			}
			c.Stats.Interrupts++
			c.InjectTrap(isa.CauseInterrupt|irq, 0)
			continue
		}
		if c.PC&3 != 0 {
			if e, exited := c.guestTrap(isa.CauseInstrMisaligned, c.PC); exited {
				return e
			}
			continue
		}
		gpa, ex, ok := c.translate(c.PC, isa.AccExec)
		if !ok {
			if ex.Reason == ExitNone {
				continue
			}
			return ex
		}
		raw, ex, ok := c.refFetch(gpa)
		if !ok {
			if ex.Reason == ExitNone {
				continue
			}
			return ex
		}
		in := isa.Decode(raw)
		if !in.Op.Valid() {
			if e, exited := c.guestTrap(isa.CauseIllegal, uint64(raw)); exited {
				return e
			}
			continue
		}
		c.Cycles += c.Costs.Instr
		c.Instret++
		if ex, done := c.execute(in, raw); done {
			return ex
		}
	}
}

// translate wraps the MMU, converting its fault taxonomy into either a guest
// trap or a VM exit. ok is false when the caller must return ex, or —
// ex.Reason == ExitNone — restart at the trap handler the guest trap just
// vectored to.
func (c *CPU) translate(va uint64, acc isa.Access) (gpa uint64, ex Exit, ok bool) {
	gpa, refs, fault := c.MMU.Translate(va, acc, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, Exit{}, true
	}
	return c.translateFault(va, acc, fault)
}

// refFetch reads the instruction word at gpa. Executing out of device space
// or beyond RAM is an instruction access fault; any other guest-physical
// fault is the host's to resolve. ok is as for translate.
func (c *CPU) refFetch(gpa uint64) (raw uint32, ex Exit, ok bool) {
	if c.IsMMIO != nil && !c.Mem.Contains(gpa) && c.IsMMIO(gpa) {
		ex, _ := c.guestTrap(isa.CauseInstrAccess, c.PC)
		return 0, ex, false
	}
	word, f := c.readMem(gpa, 4)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			ex, _ := c.guestTrap(isa.CauseInstrAccess, c.PC)
			return 0, ex, false
		}
		return 0, c.memFaultExit(c.PC, isa.AccExec, f), false
	}
	return uint32(word), Exit{}, true
}

// readMem reads a naturally aligned size-byte little-endian value from
// guest-physical memory, zero-extended.
func (c *CPU) readMem(gpa uint64, size int) (uint64, *mem.Fault) {
	var buf [8]byte
	if f := c.Mem.Read(gpa, buf[:size]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// writeMem writes the low size bytes of v, little-endian, to naturally
// aligned guest-physical memory.
func (c *CPU) writeMem(gpa uint64, size int, v uint64) *mem.Fault {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return c.Mem.Write(gpa, buf[:size])
}

// execute runs one decoded instruction. done reports that Run must return ex.
func (c *CPU) execute(in isa.Inst, raw uint32) (ex Exit, done bool) {
	switch in.Op {
	// ---- register-register ALU ----
	case isa.OpADD:
		c.SetReg(in.Rd, c.X[in.Rs1]+c.X[in.Rs2])
	case isa.OpSUB:
		c.SetReg(in.Rd, c.X[in.Rs1]-c.X[in.Rs2])
	case isa.OpAND:
		c.SetReg(in.Rd, c.X[in.Rs1]&c.X[in.Rs2])
	case isa.OpOR:
		c.SetReg(in.Rd, c.X[in.Rs1]|c.X[in.Rs2])
	case isa.OpXOR:
		c.SetReg(in.Rd, c.X[in.Rs1]^c.X[in.Rs2])
	case isa.OpSLL:
		c.SetReg(in.Rd, c.X[in.Rs1]<<(c.X[in.Rs2]&63))
	case isa.OpSRL:
		c.SetReg(in.Rd, c.X[in.Rs1]>>(c.X[in.Rs2]&63))
	case isa.OpSRA:
		c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(c.X[in.Rs2]&63)))
	case isa.OpSLT:
		c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(c.X[in.Rs2])))
	case isa.OpSLTU:
		c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < c.X[in.Rs2]))
	case isa.OpMUL:
		c.SetReg(in.Rd, c.X[in.Rs1]*c.X[in.Rs2])
	case isa.OpMULH:
		hi, _ := mulh64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))
		c.SetReg(in.Rd, uint64(hi))
	case isa.OpDIV:
		c.SetReg(in.Rd, uint64(div64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	case isa.OpDIVU:
		c.SetReg(in.Rd, divu64(c.X[in.Rs1], c.X[in.Rs2]))
	case isa.OpREM:
		c.SetReg(in.Rd, uint64(rem64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	case isa.OpREMU:
		c.SetReg(in.Rd, remu64(c.X[in.Rs1], c.X[in.Rs2]))

	// ---- immediates ----
	case isa.OpADDI:
		c.SetReg(in.Rd, c.X[in.Rs1]+uint64(int64(in.Imm)))
	case isa.OpANDI:
		c.SetReg(in.Rd, c.X[in.Rs1]&uint64(uint32(in.Imm)))
	case isa.OpORI:
		c.SetReg(in.Rd, c.X[in.Rs1]|uint64(uint32(in.Imm)))
	case isa.OpXORI:
		c.SetReg(in.Rd, c.X[in.Rs1]^uint64(uint32(in.Imm)))
	case isa.OpSLLI:
		c.SetReg(in.Rd, c.X[in.Rs1]<<(uint(in.Imm)&63))
	case isa.OpSRLI:
		c.SetReg(in.Rd, c.X[in.Rs1]>>(uint(in.Imm)&63))
	case isa.OpSRAI:
		c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(uint(in.Imm)&63)))
	case isa.OpSLTI:
		c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(in.Imm)))
	case isa.OpSLTIU:
		c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < uint64(int64(in.Imm))))
	case isa.OpLUI:
		c.SetReg(in.Rd, uint64(int64(in.Imm))<<16)

	// ---- loads / stores ----
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU, isa.OpLD:
		return c.execLoad(in)
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		return c.execStore(in)

	// ---- control flow ----
	case isa.OpBEQ:
		return c.branch(in, c.X[in.Rs1] == c.X[in.Rs2])
	case isa.OpBNE:
		return c.branch(in, c.X[in.Rs1] != c.X[in.Rs2])
	case isa.OpBLT:
		return c.branch(in, int64(c.X[in.Rs1]) < int64(c.X[in.Rs2]))
	case isa.OpBGE:
		return c.branch(in, int64(c.X[in.Rs1]) >= int64(c.X[in.Rs2]))
	case isa.OpBLTU:
		return c.branch(in, c.X[in.Rs1] < c.X[in.Rs2])
	case isa.OpBGEU:
		return c.branch(in, c.X[in.Rs1] >= c.X[in.Rs2])
	case isa.OpJAL:
		c.SetReg(in.Rd, c.PC+4)
		c.PC += uint64(int64(in.Imm))
		return Exit{}, false
	case isa.OpJALR:
		target := (c.X[in.Rs1] + uint64(int64(in.Imm))) &^ 1
		c.SetReg(in.Rd, c.PC+4)
		c.PC = target
		return Exit{}, false

	// ---- system ----
	case isa.OpECALL:
		if !c.Deprivileged && c.Priv == PrivU {
			// Native/HW-assist syscall: vectors straight into the guest
			// kernel without VMM involvement.
			c.InjectTrap(isa.CauseEcallU, 0)
			return Exit{}, false
		}
		return c.vmExit(Exit{Reason: ExitEcall, From: c.Priv}), true
	case isa.OpEBREAK:
		if e, exited := c.guestTrap(isa.CauseBreakpoint, c.PC); exited {
			return e, true
		}
		return Exit{}, false
	case isa.OpSRET:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
		c.ExecuteSRET()
		return Exit{}, false
	case isa.OpWFI:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		if c.CSR.Sip&c.CSR.Sie != 0 {
			return Exit{}, false // already pending: WFI is a no-op
		}
		return c.vmExit(Exit{Reason: ExitWFI}), true
	case isa.OpFENCE:
		// No reordering to model.
	case isa.OpSFENCE:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
		c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
		return c.execCSR(in, raw)
	case isa.OpHALT:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		return c.exit(Exit{Reason: ExitHalt, Code: uint16(in.Imm)}), true
	default:
		return c.illegal(raw)
	}
	c.PC += 4
	return Exit{}, false
}

func (c *CPU) illegal(raw uint32) (Exit, bool) {
	if e, exited := c.guestTrap(isa.CauseIllegal, uint64(raw)); exited {
		return e, true
	}
	return Exit{}, false
}

func (c *CPU) branch(in isa.Inst, taken bool) (Exit, bool) {
	if taken {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return Exit{}, false
}

func loadMeta(op isa.Op) (size int, signed bool) {
	switch op {
	case isa.OpLB:
		return 1, true
	case isa.OpLBU:
		return 1, false
	case isa.OpLH:
		return 2, true
	case isa.OpLHU:
		return 2, false
	case isa.OpLW:
		return 4, true
	case isa.OpLWU:
		return 4, false
	default:
		return 8, false
	}
}

func storeSize(op isa.Op) int {
	switch op {
	case isa.OpSB:
		return 1
	case isa.OpSH:
		return 2
	case isa.OpSW:
		return 4
	default:
		return 8
	}
}

// execLoad is the load rule: alignment check, translation, the device-window
// test, then the access itself.
func (c *CPU) execLoad(in isa.Inst) (Exit, bool) {
	size, signed := loadMeta(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	if va&uint64(size-1) != 0 {
		if e, exited := c.guestTrap(isa.CauseLoadMisaligned, va); exited {
			return e, true
		}
		return Exit{}, false
	}
	gpa, ex, ok := c.translate(va, isa.AccRead)
	if !ok {
		return ex, ex.Reason != ExitNone
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		return c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Rd: in.Rd, Signed: signed,
		}}), true
	}
	c.Cycles += c.Costs.MemAccess
	v, f := c.readMem(gpa, size)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			if e, exited := c.guestTrap(isa.CauseLoadAccess, va); exited {
				return e, true
			}
			return Exit{}, false
		}
		return c.memFaultExit(va, isa.AccRead, f), true
	}
	if signed {
		switch size {
		case 1:
			v = uint64(int64(int8(v)))
		case 2:
			v = uint64(int64(int16(v)))
		case 4:
			v = uint64(int64(int32(v)))
		}
	}
	c.SetReg(in.Rd, v)
	c.PC += 4
	return Exit{}, false
}

// execStore is the store rule, the mirror of execLoad.
func (c *CPU) execStore(in isa.Inst) (Exit, bool) {
	size := storeSize(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	val := c.X[in.Rs2]
	if va&uint64(size-1) != 0 {
		if e, exited := c.guestTrap(isa.CauseStoreMisaligned, va); exited {
			return e, true
		}
		return Exit{}, false
	}
	gpa, ex, ok := c.translate(va, isa.AccWrite)
	if !ok {
		return ex, ex.Reason != ExitNone
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		return c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Write: true, Value: val,
		}}), true
	}
	c.Cycles += c.Costs.MemAccess
	if f := c.writeMem(gpa, size, val); f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			if e, exited := c.guestTrap(isa.CauseStoreAccess, va); exited {
				return e, true
			}
			return Exit{}, false
		}
		return c.memFaultExit(va, isa.AccWrite, f), true
	}
	c.PC += 4
	return Exit{}, false
}

func (c *CPU) execCSR(in isa.Inst, raw uint32) (Exit, bool) {
	addr := uint16(in.Imm)
	// Unprivileged counters execute directly in every regime.
	if !isa.IsUserCSR(addr) {
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
	}
	old, known := c.ReadCSR(addr)
	if !known {
		return c.illegal(raw)
	}
	src := c.X[in.Rs1]
	var newVal uint64
	write := true
	switch in.Op {
	case isa.OpCSRRW:
		newVal = src
	case isa.OpCSRRS:
		newVal = old | src
		write = in.Rs1 != 0
	default: // CSRRC
		newVal = old &^ src
		write = in.Rs1 != 0
	}
	if write {
		if !c.WriteCSR(addr, newVal) {
			return c.illegal(raw)
		}
	}
	c.SetReg(in.Rd, old)
	c.PC += 4
	return Exit{}, false
}
