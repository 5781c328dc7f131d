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
func (c *CPU) runRef(budget uint64) ExitReason {
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
		if c.PC&3 != 0 {
			if c.guestTrap(isa.CauseInstrMisaligned, c.PC) == stExit {
				return c.Exit.Reason
			}
			continue
		}
		// Each step runs only while the previous one returned stOK; stTrap
		// restarts the loop at the handler the trap vectored to.
		gpa, st := c.translate(c.PC, isa.AccExec)
		var raw uint32
		if st == stOK {
			raw, st = c.refFetch(gpa)
		}
		if st == stOK {
			in := isa.Decode(raw)
			if !in.Op.Valid() {
				st = c.illegal(raw)
			} else {
				c.Cycles += c.Costs.Instr
				c.Instret++
				st = c.execute(in, raw)
			}
		}
		if st == stExit {
			return c.Exit.Reason
		}
	}
}

// translate wraps the MMU, converting its fault taxonomy into either a guest
// trap or a VM exit. The status is stOK with the gpa, or translateFault's:
// stTrap restarts at the trap handler the guest trap just vectored to.
func (c *CPU) translate(va uint64, acc isa.Access) (uint64, int) {
	gpa, refs, fault := c.MMU.Translate(va, acc, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, stOK
	}
	return 0, c.translateFault(va, acc, fault)
}

// refFetch reads the instruction word at gpa. Executing out of device space
// or beyond RAM is an instruction access fault; any other guest-physical
// fault is the host's to resolve. The status is as for translate.
func (c *CPU) refFetch(gpa uint64) (uint32, int) {
	if c.IsMMIO != nil && !c.Mem.Contains(gpa) && c.IsMMIO(gpa) {
		return 0, c.guestTrap(isa.CauseInstrAccess, c.PC)
	}
	word, f := c.readMem(gpa, 4)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			return 0, c.guestTrap(isa.CauseInstrAccess, c.PC)
		}
		return 0, c.memFaultExit(c.PC, isa.AccExec, *f)
	}
	return uint32(word), stOK
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

// execute runs one decoded instruction and returns its status: stOK,
// stTrap, or stExit when the exit record is written.
func (c *CPU) execute(in isa.Inst, raw uint32) int {
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
		return stOK
	case isa.OpJALR:
		target := (c.X[in.Rs1] + uint64(int64(in.Imm))) &^ 1
		c.SetReg(in.Rd, c.PC+4)
		c.PC = target
		return stOK

	// ---- system ----
	case isa.OpECALL:
		if !c.Deprivileged && c.Priv == PrivU {
			// Native/HW-assist syscall: vectors straight into the guest
			// kernel without VMM involvement.
			c.InjectTrap(isa.CauseEcallU, 0)
			return stTrap
		}
		c.Exit = Exit{Reason: ExitEcall, From: c.Priv}
		return c.vmExit()
	case isa.OpEBREAK:
		return c.guestTrap(isa.CauseBreakpoint, c.PC)
	case isa.OpSRET:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.privExit(in)
		}
		c.ExecuteSRET()
		return stTrap
	case isa.OpWFI:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		if c.CSR.Sip&c.CSR.Sie != 0 {
			return stOK // already pending: WFI is a no-op
		}
		c.Exit = Exit{Reason: ExitWFI}
		return c.vmExit()
	case isa.OpFENCE:
		// No reordering to model.
	case isa.OpSFENCE:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.privExit(in)
		}
		c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
		return c.execCSR(in, raw)
	case isa.OpHALT:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		c.Exit = Exit{Reason: ExitHalt, Code: uint16(in.Imm)}
		return c.exit()
	default:
		return c.illegal(raw)
	}
	c.PC += 4
	return stOK
}

func (c *CPU) branch(in isa.Inst, taken bool) int {
	if taken {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
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
func (c *CPU) execLoad(in isa.Inst) int {
	size, signed := loadMeta(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	if va&uint64(size-1) != 0 {
		return c.guestTrap(isa.CauseLoadMisaligned, va)
	}
	gpa, st := c.translate(va, isa.AccRead)
	if st != stOK {
		return st
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		return c.mmioExit(MMIOInfo{GPA: gpa, Size: uint8(size), Rd: in.Rd, Signed: signed})
	}
	c.Cycles += c.Costs.MemAccess
	v, f := c.readMem(gpa, size)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			return c.guestTrap(isa.CauseLoadAccess, va)
		}
		return c.memFaultExit(va, isa.AccRead, *f)
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
	return stOK
}

// execStore is the store rule, the mirror of execLoad.
func (c *CPU) execStore(in isa.Inst) int {
	size := storeSize(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	val := c.X[in.Rs2]
	if va&uint64(size-1) != 0 {
		return c.guestTrap(isa.CauseStoreMisaligned, va)
	}
	gpa, st := c.translate(va, isa.AccWrite)
	if st != stOK {
		return st
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		return c.mmioExit(MMIOInfo{GPA: gpa, Size: uint8(size), Write: true, Value: val})
	}
	c.Cycles += c.Costs.MemAccess
	if f := c.writeMem(gpa, size, val); f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			return c.guestTrap(isa.CauseStoreAccess, va)
		}
		return c.memFaultExit(va, isa.AccWrite, *f)
	}
	c.PC += 4
	return stOK
}

func (c *CPU) execCSR(in isa.Inst, raw uint32) int {
	addr := uint16(in.Imm)
	// Unprivileged counters execute directly in every regime.
	if !isa.IsUserCSR(addr) {
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.privExit(in)
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
	return stOK
}
