package vcpu

import (
	"testing"
	"testing/quick"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

const ramPages = 256

// engine constructs a CPU: New (the fast engine) or NewReference.
type engine func(*mem.GuestPhys, *mmu.Context) *CPU

// eachEngine runs an architectural test under both engines, so traps, CSR
// rules, misalignment, MMIO exits and WFI/HALT are asserted on the fast
// engine and the reference interpreter directly, not only through the
// differential suites.
func eachEngine(t *testing.T, test func(t *testing.T, mk engine)) {
	t.Run("fast", func(t *testing.T) { test(t, New) })
	t.Run("ref", func(t *testing.T) { test(t, NewReference) })
}

// newCPU builds a CPU over fresh RAM with the program loaded at org.
func newCPU(t *testing.T, mk engine, img []byte, org uint64) *CPU {
	t.Helper()
	g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	if f := g.Write(org, img); f != nil {
		t.Fatal(f)
	}
	c := mk(g, mmu.NewContext(g, mmu.StyleDirect))
	c.Priv = PrivS
	c.PC = org
	return c
}

// newCPUPair builds a fast-engine CPU and a reference CPU over identical
// memory images loaded at 0x1000; tweak, if non-nil, configures both.
func newCPUPair(t *testing.T, img []byte, tweak func(*CPU)) (fast, ref *CPU) {
	t.Helper()
	fast, ref = newCPU(t, New, img, 0x1000), newCPU(t, NewReference, img, 0x1000)
	if tweak != nil {
		tweak(fast)
		tweak(ref)
	}
	return fast, ref
}

// runRecord runs c for budget cycles and returns its exit record, which
// must carry the reason Run returned.
func runRecord(t *testing.T, c *CPU, budget uint64) *Exit {
	t.Helper()
	if r := c.Run(budget); r != c.Exit.Reason {
		t.Fatalf("Run returned %v, but the exit record says %v", r, &c.Exit)
	}
	return &c.Exit
}

// buildRun assembles source with builder fn, runs to completion, returns CPU.
func buildRun(t *testing.T, mk engine, build func(b *asm.Builder)) *CPU {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	build(b)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := newCPU(t, mk, img, 0x1000)
	ex := runRecord(t, c, 1_000_000)
	if ex.Reason != ExitHalt {
		t.Fatalf("exit = %v (pc=%#x)", ex, c.PC)
	}
	return c
}

func TestArithmeticBasics(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegA0, 20)
			b.Li(isa.RegA1, 22)
			b.R(isa.OpADD, isa.RegA2, isa.RegA0, isa.RegA1) // 42
			b.R(isa.OpSUB, isa.RegA3, isa.RegA0, isa.RegA1) // -2
			b.R(isa.OpMUL, isa.RegA4, isa.RegA0, isa.RegA1) // 440
			b.Halt(0)
		})
		if c.X[isa.RegA2] != 42 {
			t.Errorf("add = %d", c.X[isa.RegA2])
		}
		if int64(c.X[isa.RegA3]) != -2 {
			t.Errorf("sub = %d", int64(c.X[isa.RegA3]))
		}
		if c.X[isa.RegA4] != 440 {
			t.Errorf("mul = %d", c.X[isa.RegA4])
		}
	})
}

func TestX0AlwaysZero(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.I(isa.OpADDI, isa.RegZero, isa.RegZero, 99)
			b.Mv(isa.RegA0, isa.RegZero)
			b.Halt(0)
		})
		if c.X[isa.RegA0] != 0 {
			t.Fatalf("x0 = %d", c.X[isa.RegA0])
		}
	})
}

func TestDivisionEdgeCases(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegA0, 7)
			b.Li(isa.RegA1, 0)
			b.R(isa.OpDIV, isa.RegA2, isa.RegA0, isa.RegA1)  // 7/0 = -1
			b.R(isa.OpREM, isa.RegA3, isa.RegA0, isa.RegA1)  // 7%0 = 7
			b.R(isa.OpDIVU, isa.RegA4, isa.RegA0, isa.RegA1) // all ones
			b.Li(isa.RegA5, 1<<63)
			b.Li(isa.RegA6, ^uint64(0))                     // -1
			b.R(isa.OpDIV, isa.RegA7, isa.RegA5, isa.RegA6) // overflow → MinInt
			b.R(isa.OpREM, isa.RegT0, isa.RegA5, isa.RegA6) // overflow → 0
			b.Halt(0)
		})
		if int64(c.X[isa.RegA2]) != -1 {
			t.Errorf("div by zero = %d", int64(c.X[isa.RegA2]))
		}
		if c.X[isa.RegA3] != 7 {
			t.Errorf("rem by zero = %d", c.X[isa.RegA3])
		}
		if c.X[isa.RegA4] != ^uint64(0) {
			t.Errorf("divu by zero = %#x", c.X[isa.RegA4])
		}
		if c.X[isa.RegA7] != 1<<63 {
			t.Errorf("overflow div = %#x", c.X[isa.RegA7])
		}
		if c.X[isa.RegT0] != 0 {
			t.Errorf("overflow rem = %d", c.X[isa.RegT0])
		}
	})
}

func TestShiftsAndComparisons(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegA0, ^uint64(0)) // -1
			b.I(isa.OpSRAI, isa.RegA1, isa.RegA0, 16)
			b.I(isa.OpSRLI, isa.RegA2, isa.RegA0, 60)
			b.Li(isa.RegT0, 5)
			b.Li(isa.RegT1, ^uint64(2))                      // -3
			b.R(isa.OpSLT, isa.RegA3, isa.RegT1, isa.RegT0)  // -3 < 5 → 1
			b.R(isa.OpSLTU, isa.RegA4, isa.RegT1, isa.RegT0) // huge > 5 → 0
			b.Halt(0)
		})
		if c.X[isa.RegA1] != ^uint64(0) {
			t.Errorf("srai = %#x", c.X[isa.RegA1])
		}
		if c.X[isa.RegA2] != 0xF {
			t.Errorf("srli = %#x", c.X[isa.RegA2])
		}
		if c.X[isa.RegA3] != 1 || c.X[isa.RegA4] != 0 {
			t.Errorf("slt=%d sltu=%d", c.X[isa.RegA3], c.X[isa.RegA4])
		}
	})
}

func TestLoadsStoresAllWidths(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegS0, 0x8000) // scratch area
			b.Li(isa.RegA0, 0xFFEEDDCCBBAA9988)
			b.Store(isa.OpSD, isa.RegA0, isa.RegS0, 0)
			b.Load(isa.OpLD, isa.RegA1, isa.RegS0, 0)
			b.Load(isa.OpLW, isa.RegA2, isa.RegS0, 0)  // sign-extended 0xBBAA9988
			b.Load(isa.OpLWU, isa.RegA3, isa.RegS0, 0) // zero-extended
			b.Load(isa.OpLH, isa.RegA4, isa.RegS0, 0)  // 0x9988 sign-extended
			b.Load(isa.OpLHU, isa.RegA5, isa.RegS0, 0)
			b.Load(isa.OpLB, isa.RegA6, isa.RegS0, 0) // 0x88 sign-extended
			b.Load(isa.OpLBU, isa.RegA7, isa.RegS0, 0)
			b.Halt(0)
		})
		if c.X[isa.RegA1] != 0xFFEEDDCCBBAA9988 {
			t.Errorf("ld = %#x", c.X[isa.RegA1])
		}
		if c.X[isa.RegA2] != 0xFFFFFFFFBBAA9988 {
			t.Errorf("lw = %#x", c.X[isa.RegA2])
		}
		if c.X[isa.RegA3] != 0xBBAA9988 {
			t.Errorf("lwu = %#x", c.X[isa.RegA3])
		}
		if c.X[isa.RegA4] != 0xFFFFFFFFFFFF9988 {
			t.Errorf("lh = %#x", c.X[isa.RegA4])
		}
		if c.X[isa.RegA5] != 0x9988 {
			t.Errorf("lhu = %#x", c.X[isa.RegA5])
		}
		if c.X[isa.RegA6] != 0xFFFFFFFFFFFFFF88 {
			t.Errorf("lb = %#x", c.X[isa.RegA6])
		}
		if c.X[isa.RegA7] != 0x88 {
			t.Errorf("lbu = %#x", c.X[isa.RegA7])
		}
	})
}

func TestLoopAndBranches(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		// Sum 1..100 with a loop.
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegA0, 0)   // sum
			b.Li(isa.RegT0, 1)   // i
			b.Li(isa.RegT1, 100) // limit
			b.Label("loop")
			b.R(isa.OpADD, isa.RegA0, isa.RegA0, isa.RegT0)
			b.I(isa.OpADDI, isa.RegT0, isa.RegT0, 1)
			b.Branch(isa.OpBGE, isa.RegT1, isa.RegT0, "loop")
			b.Halt(0)
		})
		if c.X[isa.RegA0] != 5050 {
			t.Fatalf("sum = %d", c.X[isa.RegA0])
		}
	})
}

func TestCallRet(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegSP, 0x9000)
			b.Li(isa.RegA0, 5)
			b.Call("double")
			b.Call("double")
			b.Halt(0)
			b.Label("double")
			b.R(isa.OpADD, isa.RegA0, isa.RegA0, isa.RegA0)
			b.Ret()
		})
		if c.X[isa.RegA0] != 20 {
			t.Fatalf("a0 = %d", c.X[isa.RegA0])
		}
	})
}

func TestCSRReadWrite(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.Li(isa.RegA0, 0x7777)
			b.Csrw(isa.CSRSscratch, isa.RegA0)
			b.Csrr(isa.RegA1, isa.CSRSscratch)
			b.Csrr(isa.RegA2, isa.CSRVenv)
			b.Csrr(isa.RegA3, isa.CSRCycle)
			b.Halt(0)
		})
		if c.X[isa.RegA1] != 0x7777 {
			t.Errorf("sscratch = %#x", c.X[isa.RegA1])
		}
		if c.X[isa.RegA2] != isa.VEnvNative {
			t.Errorf("venv = %d", c.X[isa.RegA2])
		}
		if c.X[isa.RegA3] == 0 {
			t.Error("cycle counter should be nonzero")
		}
	})
}

func TestTrapAndSretRoundTrip(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		// Install a trap handler, take an illegal-instruction trap, return.
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			b.Raw(0) // illegal instruction → trap
			b.Label("resume")
			b.Li(isa.RegA1, 77)
			b.Halt(0)
			b.Align(4)
			b.Label("handler")
			b.Csrr(isa.RegA0, isa.CSRScause)
			b.La(isa.RegT1, "resume")
			b.Csrw(isa.CSRSepc, isa.RegT1)
			b.Sret()
		})
		if c.X[isa.RegA0] != isa.CauseIllegal {
			t.Errorf("scause = %d", c.X[isa.RegA0])
		}
		if c.X[isa.RegA1] != 77 {
			t.Errorf("resume path not taken: a1 = %d", c.X[isa.RegA1])
		}
		if c.Stats.Traps != 1 {
			t.Errorf("traps = %d", c.Stats.Traps)
		}
	})
}

func TestUserModeEcallNative(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		// Kernel drops to U-mode; user code ecalls; kernel handler gets EcallU
		// and halts. No VMM exits should occur for the syscall itself.
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			// sstatus.SPP = 0 (U), sepc = user entry; sret drops privilege.
			b.La(isa.RegT1, "user")
			b.Csrw(isa.CSRSepc, isa.RegT1)
			b.Li(isa.RegT2, 0)
			b.Csrw(isa.CSRSstatus, isa.RegT2)
			b.Sret()
			b.Label("user")
			b.Li(isa.RegA0, 123)
			b.Ecall()
			b.Label("spin") // unreachable
			b.J("spin")
			b.Align(4)
			b.Label("handler")
			b.Csrr(isa.RegA1, isa.CSRScause)
			b.Halt(0)
		})
		if c.X[isa.RegA1] != isa.CauseEcallU {
			t.Errorf("cause = %d", c.X[isa.RegA1])
		}
		if c.X[isa.RegA0] != 123 {
			t.Errorf("a0 = %d", c.X[isa.RegA0])
		}
		if c.Stats.Exits[ExitEcall] != 0 {
			t.Error("native U-mode ecall must not exit to the VMM")
		}
	})
}

func TestUserModeCannotTouchCSRs(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			b.La(isa.RegT1, "user")
			b.Csrw(isa.CSRSepc, isa.RegT1)
			b.Sret() // to U
			b.Label("user")
			b.Csrr(isa.RegA0, isa.CSRSatp) // privileged → illegal
			b.J("user")
			b.Align(4)
			b.Label("handler")
			b.Csrr(isa.RegA1, isa.CSRScause)
			b.Halt(0)
		})
		if c.X[isa.RegA1] != isa.CauseIllegal {
			t.Errorf("cause = %d", c.X[isa.RegA1])
		}
	})
}

func TestUserCSRsReadableFromU(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			b.La(isa.RegT1, "user")
			b.Csrw(isa.CSRSepc, isa.RegT1)
			b.Sret()
			b.Label("user")
			b.Csrr(isa.RegA0, isa.CSRCycle) // unprivileged counter
			b.Ecall()
			b.Align(4)
			b.Label("handler")
			b.Halt(0)
		})
		if c.X[isa.RegA0] == 0 {
			t.Error("cycle read from U returned 0")
		}
	})
}

func TestMisalignedAccessTraps(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			b.Li(isa.RegS0, 0x8001)
			b.Load(isa.OpLD, isa.RegA0, isa.RegS0, 0) // misaligned
			b.Label("spin")
			b.J("spin")
			b.Align(4)
			b.Label("handler")
			b.Csrr(isa.RegA1, isa.CSRScause)
			b.Csrr(isa.RegA2, isa.CSRStval)
			b.Halt(0)
		})
		if c.X[isa.RegA1] != isa.CauseLoadMisaligned {
			t.Errorf("cause = %d", c.X[isa.RegA1])
		}
		if c.X[isa.RegA2] != 0x8001 {
			t.Errorf("stval = %#x", c.X[isa.RegA2])
		}
	})
}

func TestEcallFromSExits(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegA7, 42)
		b.Ecall()
		b.Halt(9)
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		ex := runRecord(t, c, 10_000)
		if ex.Reason != ExitEcall || ex.From != PrivS {
			t.Fatalf("exit = %v", ex)
		}
		if c.X[isa.RegA7] != 42 {
			t.Fatalf("a7 = %d", c.X[isa.RegA7])
		}
		// VMM handles, then resumes past the ecall.
		c.PC += 4
		ex = runRecord(t, c, 10_000)
		if ex.Reason != ExitHalt || ex.Code != 9 {
			t.Fatalf("resume exit = %v", ex)
		}
	})
}

func TestQuantumExpiry(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.Label("spin")
		b.J("spin")
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		ex := runRecord(t, c, 1000)
		if ex.Reason != ExitQuantum {
			t.Fatalf("exit = %v", ex)
		}
		if c.Cycles < 1000 {
			t.Fatalf("cycles = %d", c.Cycles)
		}
		// Resumable.
		ex = runRecord(t, c, 1000)
		if ex.Reason != ExitQuantum {
			t.Fatalf("second run = %v", ex)
		}
	})
}

func TestTimerInterruptDirectDelivery(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		c := buildRun(t, mk, func(b *asm.Builder) {
			b.La(isa.RegT0, "handler")
			b.Csrw(isa.CSRStvec, isa.RegT0)
			// Enable timer interrupts.
			b.Li(isa.RegT1, 1<<isa.IntTimer)
			b.Csrw(isa.CSRSie, isa.RegT1)
			b.Li(isa.RegT2, isa.StatusSIE)
			b.Csrw(isa.CSRSstatus, isa.RegT2)
			// Arm the timer 500 cycles out.
			b.Csrr(isa.RegT3, isa.CSRCycle)
			b.I(isa.OpADDI, isa.RegT3, isa.RegT3, 500)
			b.Csrw(isa.CSRStimecmp, isa.RegT3)
			b.Label("spin")
			b.J("spin")
			b.Align(4)
			b.Label("handler")
			b.Csrr(isa.RegA0, isa.CSRScause)
			b.Halt(0)
		})
		want := isa.CauseInterrupt | isa.IntTimer
		if c.X[isa.RegA0] != want {
			t.Fatalf("cause = %#x want %#x", c.X[isa.RegA0], want)
		}
		if c.Stats.Interrupts != 1 {
			t.Fatalf("interrupts = %d", c.Stats.Interrupts)
		}
	})
}

func TestWFIWaitsForInterrupt(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.Li(isa.RegT1, 1<<isa.IntExt)
		b.Csrw(isa.CSRSie, isa.RegT1)
		b.Li(isa.RegT2, isa.StatusSIE)
		b.Csrw(isa.CSRSstatus, isa.RegT2)
		b.Wfi()
		b.Label("spin")
		b.J("spin")
		b.Align(4)
		b.Label("handler")
		b.Halt(0)
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		ex := runRecord(t, c, 100_000)
		if ex.Reason != ExitWFI {
			t.Fatalf("exit = %v", ex)
		}
		// Device raises the external line; VMM resumes.
		c.RaiseIRQ(isa.IntExt)
		ex = runRecord(t, c, 100_000)
		if ex.Reason != ExitHalt {
			t.Fatalf("after irq: %v", ex)
		}
	})
}

func TestDeprivilegedCSRExits(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegA0, 0xAB)
		b.Csrw(isa.CSRSscratch, isa.RegA0)
		b.Halt(3)
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		c.Deprivileged = true
		c.Venv = isa.VEnvTrap

		ex := runRecord(t, c, 100_000)
		if ex.Reason != ExitPriv {
			t.Fatalf("exit = %v", ex)
		}
		if ex.Inst.Op != isa.OpCSRRW {
			t.Fatalf("inst = %v", ex.Inst)
		}
		// VMM emulates and resumes.
		if err := c.EmulatePrivileged(ex.Inst); err != nil {
			t.Fatal(err)
		}
		if c.CSR.Sscratch != 0xAB {
			t.Fatalf("sscratch = %#x", c.CSR.Sscratch)
		}
		ex = runRecord(t, c, 100_000)
		if ex.Reason != ExitHalt || ex.Code != 3 {
			t.Fatalf("resume = %v", ex)
		}
	})
}

func TestDeprivilegedGuestTrapExits(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.Raw(0) // illegal
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		c.Deprivileged = true
		ex := runRecord(t, c, 10_000)
		if ex.Reason != ExitGuestTrap || ex.Cause != isa.CauseIllegal {
			t.Fatalf("exit = %v", ex)
		}
	})
}

func TestDeprivilegedInterruptWindow(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		b.Label("spin")
		b.J("spin")
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		c.Deprivileged = true
		c.CSR.Sie = 1 << isa.IntTimer
		c.CSR.Sstatus = isa.StatusSIE
		c.RaiseIRQ(isa.IntTimer)
		ex := runRecord(t, c, 10_000)
		if ex.Reason != ExitIntrWindow {
			t.Fatalf("exit = %v", ex)
		}
	})
}

func TestMMIOExitRoundTrip(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		const mmioBase = 0x4000_0000
		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegS0, mmioBase)
		b.Li(isa.RegA0, 0x55)
		b.Store(isa.OpSW, isa.RegA0, isa.RegS0, 0) // device write
		b.Load(isa.OpLW, isa.RegA1, isa.RegS0, 4)  // device read
		b.Halt(0)
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		c.IsMMIO = func(gpa uint64) bool { return gpa >= mmioBase && gpa < mmioBase+0x1000 }

		ex := runRecord(t, c, 100_000)
		if ex.Reason != ExitMMIO || !ex.MMIO.Write || ex.MMIO.GPA != mmioBase || ex.MMIO.Value != 0x55 {
			t.Fatalf("write exit = %v", ex)
		}
		ex = runRecord(t, c, 100_000)
		if ex.Reason != ExitMMIO || ex.MMIO.Write || ex.MMIO.GPA != mmioBase+4 {
			t.Fatalf("read exit = %v", ex)
		}
		c.FinishMMIORead(ex.MMIO, 0xFFFFFFFF)
		ex = runRecord(t, c, 100_000)
		if ex.Reason != ExitHalt {
			t.Fatalf("final = %v", ex)
		}
		// LW sign-extends.
		if c.X[isa.RegA1] != ^uint64(0) {
			t.Fatalf("a1 = %#x", c.X[isa.RegA1])
		}
	})
}

func TestCycleAccountingMonotonic(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		b := asm.NewBuilder(0x1000)
		for i := 0; i < 10; i++ {
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		b.Halt(0)
		img, _ := b.Finish()
		c := newCPU(t, mk, img, 0x1000)
		ex := runRecord(t, c, 1_000_000)
		if ex.Reason != ExitHalt {
			t.Fatal(ex)
		}
		if c.Instret != 11 {
			t.Fatalf("instret = %d", c.Instret)
		}
		if c.Cycles < 11 {
			t.Fatalf("cycles = %d", c.Cycles)
		}
	})
}

func TestStoreCostsMoreThanALU(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		run := func(build func(b *asm.Builder)) uint64 {
			b := asm.NewBuilder(0x1000)
			build(b)
			b.Halt(0)
			img, _ := b.Finish()
			c := newCPU(t, mk, img, 0x1000)
			if ex := runRecord(t, c, 1_000_000); ex.Reason != ExitHalt {
				t.Fatal(ex)
			}
			return c.Cycles
		}
		alu := run(func(b *asm.Builder) { b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1) })
		st := run(func(b *asm.Builder) {
			b.Li(isa.RegS0, 0x8000)
			b.Store(isa.OpSD, isa.RegZero, isa.RegS0, 0)
		})
		if st <= alu {
			t.Fatalf("store cycles %d should exceed alu cycles %d", st, alu)
		}
	})
}

// Property test: ALU ops match Go semantics for random operands.
func TestALUSemanticsProperty(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		type alu struct {
			op   isa.Op
			eval func(a, b uint64) uint64
		}
		ops := []alu{
			{isa.OpADD, func(a, b uint64) uint64 { return a + b }},
			{isa.OpSUB, func(a, b uint64) uint64 { return a - b }},
			{isa.OpAND, func(a, b uint64) uint64 { return a & b }},
			{isa.OpOR, func(a, b uint64) uint64 { return a | b }},
			{isa.OpXOR, func(a, b uint64) uint64 { return a ^ b }},
			{isa.OpSLL, func(a, b uint64) uint64 { return a << (b & 63) }},
			{isa.OpSRL, func(a, b uint64) uint64 { return a >> (b & 63) }},
			{isa.OpSRA, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
			{isa.OpMUL, func(a, b uint64) uint64 { return a * b }},
		}
		f := func(a, b uint64, opIdx uint8) bool {
			op := ops[int(opIdx)%len(ops)]
			bld := asm.NewBuilder(0x1000)
			bld.Li(isa.RegA0, a)
			bld.Li(isa.RegA1, b)
			bld.R(op.op, isa.RegA2, isa.RegA0, isa.RegA1)
			bld.Halt(0)
			img, err := bld.Finish()
			if err != nil {
				return false
			}
			c := newCPU(t, mk, img, 0x1000)
			if ex := runRecord(t, c, 1_000_000); ex.Reason != ExitHalt {
				return false
			}
			return c.X[isa.RegA2] == op.eval(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPagedExecution(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		// The kernel builds identity tables (via the Go-side builder, standing in
		// for boot code), enables SATP, and keeps executing.
		g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
		g.PopulateAll()
		tb, err := mmu.NewTableBuilder(g, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.IdentityMap(ramPages*isa.PageSize, isa.PTERead|isa.PTEWrite|isa.PTEExec); err != nil {
			t.Fatal(err)
		}

		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegT0, isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN))
		b.Csrw(isa.CSRSatp, isa.RegT0)
		// Now running translated; do some memory work.
		b.Li(isa.RegS0, 0x10000)
		b.Li(isa.RegA0, 0xCAFE)
		b.Store(isa.OpSD, isa.RegA0, isa.RegS0, 0)
		b.Load(isa.OpLD, isa.RegA1, isa.RegS0, 0)
		b.Halt(0)
		img, _ := b.Finish()
		if f := g.Write(0x1000, img); f != nil {
			t.Fatal(f)
		}
		c := mk(g, mmu.NewContext(g, mmu.StyleDirect))
		c.Priv = PrivS
		c.PC = 0x1000
		ex := runRecord(t, c, 1_000_000)
		if ex.Reason != ExitHalt {
			t.Fatalf("exit = %v (pc=%#x)", ex, c.PC)
		}
		if c.X[isa.RegA1] != 0xCAFE {
			t.Fatalf("a1 = %#x", c.X[isa.RegA1])
		}
		if c.MMU.Stats.Walks == 0 {
			t.Fatal("paged run should have walked")
		}
	})
}

func TestPageFaultDeliveredToGuest(t *testing.T) {
	eachEngine(t, func(t *testing.T, mk engine) {
		g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
		g.PopulateAll()
		tb, _ := mmu.NewTableBuilder(g, 128, 32)
		// Map only the code+handler region; 0x700000 left unmapped.
		tb.IdentityMap(64*isa.PageSize, isa.PTERead|isa.PTEWrite|isa.PTEExec)

		b := asm.NewBuilder(0x1000)
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.Li(isa.RegT1, isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN))
		b.Csrw(isa.CSRSatp, isa.RegT1)
		b.Li(isa.RegS0, 0x700000)
		b.Load(isa.OpLD, isa.RegA0, isa.RegS0, 0) // → load page fault
		b.Label("spin")
		b.J("spin")
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA1, isa.CSRScause)
		b.Csrr(isa.RegA2, isa.CSRStval)
		b.Halt(0)
		img, _ := b.Finish()
		g.Write(0x1000, img)
		c := mk(g, mmu.NewContext(g, mmu.StyleDirect))
		c.Priv = PrivS
		c.PC = 0x1000
		ex := runRecord(t, c, 1_000_000)
		if ex.Reason != ExitHalt {
			t.Fatalf("exit = %v", ex)
		}
		if c.X[isa.RegA1] != isa.CauseLoadPageFault {
			t.Fatalf("cause = %d", c.X[isa.RegA1])
		}
		if c.X[isa.RegA2] != 0x700000 {
			t.Fatalf("stval = %#x", c.X[isa.RegA2])
		}
	})
}
