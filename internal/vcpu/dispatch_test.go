package vcpu

import (
	"math/rand"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// TestExecTableComplete pins the completeness contract of the threaded-
// dispatch table: every valid opcode resolves to an executor, and invalid or
// out-of-range opcodes (Decode passes any 6-bit value through) resolve to
// nil without panicking. FuzzDecode enforces the same property over the
// whole word space.
func TestExecTableComplete(t *testing.T) {
	if missing := execTable.Unresolved(func(f execFn) bool { return f == nil }); len(missing) > 0 {
		t.Fatalf("opcodes with no threaded executor: %v", missing)
	}
	for op := isa.Op(0); op < 64; op++ {
		if got := ExecutorResolved(op); got != op.Valid() {
			t.Errorf("ExecutorResolved(%v) = %v, want %v", op, got, op.Valid())
		}
	}
}

// TestThreadedDispatchQuantumSweep: quantum expiry must land on exactly the
// same instruction under the executor table and the reference switch on a
// program that retires every executor kind — ALU, load, store (into its own
// code page), taken and untaken branches, a jump — with the budget swept so
// deadlines land on each of them, including either side of the
// self-modifying store.
func TestThreadedDispatchQuantumSweep(t *testing.T) {
	for budget := uint64(1); budget < 40; budget++ {
		threaded, sw := newCPUPair(t, smcProgram(), nil)
		for {
			exT := runRecord(t, threaded, budget)
			exS := runRecord(t, sw, budget)
			if exT.Reason != exS.Reason {
				t.Fatalf("budget %d: exit diverged: threaded %v switch %v (pc %#x vs %#x)",
					budget, exT, exS, threaded.PC, sw.PC)
			}
			compareCPUs(t, "dispatch-quantum", threaded, sw)
			if t.Failed() {
				t.Fatalf("diverged at budget %d", budget)
			}
			if exT.Reason == ExitHalt {
				break
			}
		}
		if threaded.X[isa.RegA0] != 111 {
			t.Fatalf("budget %d: a0 = %d, want 111", budget, threaded.X[isa.RegA0])
		}
	}
}

// TestThreadedDispatchSelfModifyingCode: every store width's executor must
// report a store into the executing code page. Each variant patches the
// immediate field of the instruction that follows the store in the same
// straight-line run, through SB, SH, SW or SD; a width whose executor missed
// the SMC check would retire the stale predecoded slot.
func TestThreadedDispatchSelfModifyingCode(t *testing.T) {
	old := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 11})
	patched := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 100})
	nop := isa.Encode(isa.Inst{Op: isa.OpADDI})
	if old>>8 != patched>>8 {
		t.Fatalf("the two encodings differ above the low byte (%#x vs %#x): SB cannot patch one into the other", old, patched)
	}
	for _, st := range []struct {
		op  isa.Op
		val uint64
	}{
		{isa.OpSB, uint64(patched & 0xFF)},
		{isa.OpSH, uint64(patched & 0xFFFF)},
		{isa.OpSW, uint64(patched)},
		{isa.OpSD, uint64(nop)<<32 | uint64(patched)},
	} {
		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegT1, st.val)
		b.La(isa.RegT2, "patched")
		b.J("body")
		b.Align(8) // SD needs the patched slot 8-byte aligned
		b.Label("body")
		b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 1)
		b.Store(st.op, isa.RegT1, isa.RegT2, 0)
		b.Label("patched")
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 11)
		b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 1) // SD overwrites this with a nop
		b.Halt(0)
		img, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		threaded, sw := newCPUPair(t, img, nil)
		exT, exS := runRecord(t, threaded, 1_000_000), runRecord(t, sw, 1_000_000)
		if exT.Reason != ExitHalt || exS.Reason != ExitHalt {
			t.Fatalf("%v: exits: threaded %v switch %v", st.op, exT, exS)
		}
		if threaded.X[isa.RegA0] != 100 {
			t.Fatalf("%v: threaded a0 = %d, want 100 (stale executor?)", st.op, threaded.X[isa.RegA0])
		}
		compareCPUs(t, "dispatch-smc "+st.op.String(), threaded, sw)
	}
}

// TestDecodeResolvesExecutors pins the fast loop's contract with the decode
// step: every decoded slot of a valid opcode carries a resolved executor
// (CPU.Run calls it without a nil check), and invalid slots carry none.
func TestDecodeResolvesExecutors(t *testing.T) {
	threaded := newCPU(t, New, straightLineImg(t, 100), 0x1000)
	if ex := runRecord(t, threaded, 1_000_000); ex.Reason != ExitHalt {
		t.Fatalf("run ended %v", ex)
	}
	slots := 0
	for gfn, p := range threaded.ICache.pages {
		for i := 0; i < instPerPage; i++ {
			if p.valid[i>>6]&(1<<(i&63)) == 0 {
				continue
			}
			slots++
			if want := p.ins[i].Op.Valid(); (p.fn[i] != nil) != want {
				t.Fatalf("gfn %d slot %d (%s): fn resolved=%v, want %v",
					gfn, i, p.ins[i].Op, p.fn[i] != nil, want)
			}
		}
	}
	if slots == 0 {
		t.Fatal("no decoded slots found — icache never engaged")
	}
}

// knownCSRs biases the randomized CSR trials toward implemented registers.
var knownCSRs = []uint16{
	isa.CSRSstatus, isa.CSRSie, isa.CSRStvec, isa.CSRSscratch, isa.CSRSepc,
	isa.CSRScause, isa.CSRStval, isa.CSRSip, isa.CSRStimecmp, isa.CSRSatp,
	isa.CSRCycle, isa.CSRTime, isa.CSRInstret, isa.CSRVenv,
}

// TestThreadedExecutorsMatchSwitch is the per-opcode refinement property:
// for every valid opcode, a randomized single-step through the fast engine's
// executor must leave the machine in exactly the state the reference
// interpreter's rule (the execute switch in ref.go) produces — registers,
// PC, privilege, CSRs, cycles, instret, every statistic — and agree on
// whether (and with what) Run would exit. The status/Exit mapping is checked
// directly: done ⇔ stExit, with the same Exit value.
func TestThreadedExecutorsMatchSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const pages = 64
	build := func(mk engine, seed int64) *CPU {
		r := rand.New(rand.NewSource(seed))
		g := mem.NewGuestPhys(mem.NewPool(pages*2), pages*isa.PageSize)
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, isa.PageSize)
		for gfn := uint64(0); gfn < 8; gfn++ {
			for i := range buf {
				buf[i] = byte(r.Intn(256))
			}
			g.WriteRaw(gfn, buf)
		}
		c := mk(g, mmu.NewContext(g, mmu.StyleDirect))
		for i := 1; i < 32; i++ {
			switch r.Intn(3) {
			case 0: // in-RAM, aligned: loads/stores usually land
				c.X[i] = uint64(r.Intn(pages*isa.PageSize)) &^ 7
			case 1: // small values for shift/branch operands
				c.X[i] = uint64(r.Intn(256))
			default: // arbitrary 64-bit patterns (incl. out-of-RAM VAs)
				c.X[i] = r.Uint64()
			}
		}
		c.PC = 0x1000
		c.Priv = uint8(r.Intn(2))
		c.Deprivileged = r.Intn(2) == 0
		c.CSR.Sstatus = uint64(r.Intn(8)) // SIE/SPIE/SPP bits
		c.CSR.Stvec = 0x2000
		c.CSR.Sepc = 0x3000
		c.CSR.Sip = uint64(r.Intn(8))
		c.CSR.Sie = uint64(r.Intn(8))
		return c
	}
	for op := isa.OpIllegal + 1; int(op) < isa.NumOps; op++ {
		fn := execTable.For(op)
		if fn == nil {
			t.Fatalf("%v: no executor", op)
		}
		for trial := 0; trial < 24; trial++ {
			raw := rng.Uint32()&0x03FF_FFFF | uint32(op)<<26
			switch op {
			case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
				if trial%2 == 0 {
					raw = raw&^0xFFFF | uint32(knownCSRs[rng.Intn(len(knownCSRs))])
				}
			}
			in := isa.Decode(raw)
			seed := int64(op)<<32 | int64(trial)
			a, b := build(New, seed), build(NewReference, seed)

			st, stRef := fn(a, in, raw), b.execute(in, raw)

			if st != stRef {
				t.Fatalf("%v %+v: status %d vs %d", op, in, st, stRef)
			}
			if a.Exit != b.Exit {
				t.Fatalf("%v %+v: exit record diverged: %+v vs %+v", op, in, a.Exit, b.Exit)
			}
			if a.X != b.X || a.PC != b.PC || a.Priv != b.Priv {
				t.Fatalf("%v %+v (raw %#x): register state diverged (pc %#x vs %#x, a0 %d vs %d)",
					op, in, raw, a.PC, b.PC, a.X[10], b.X[10])
			}
			if a.CSR != b.CSR {
				t.Fatalf("%v %+v: CSR state diverged: %+v vs %+v", op, in, a.CSR, b.CSR)
			}
			if a.Cycles != b.Cycles || a.Instret != b.Instret {
				t.Fatalf("%v %+v: time diverged: (cyc=%d ret=%d) vs (cyc=%d ret=%d)",
					op, in, a.Cycles, a.Instret, b.Cycles, b.Instret)
			}
			if a.Stats != b.Stats {
				t.Fatalf("%v %+v: exit stats diverged: %+v vs %+v", op, in, a.Stats, b.Stats)
			}
			if a.MMU.Stats != b.MMU.Stats || a.MMU.TLB.Stats != b.MMU.TLB.Stats {
				t.Fatalf("%v %+v: MMU/TLB stats diverged", op, in)
			}
		}
	}
}
