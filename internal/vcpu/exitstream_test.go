package vcpu

import (
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Exit-stream parity: the fast engine and the reference interpreter, run
// deprivileged over the same program under a small test-side VMM, must
// return the same sequence of exit reasons with equal exit records. The
// record carries its guest-physical fault by value, so == compares every
// field an exit handler can read.

const (
	streamMMIO   = 0x4000_0000
	streamWPEmul = 0x8000  // write-protected page whose stores the VMM emulates
	streamWPLog  = 0x9000  // write-protected page the VMM unprotects (dirty logging)
	streamLoads  = 0x10000 // not-present pages, one loaded per iteration
	streamStores = 0x20000 // not-present pages, one stored to per iteration
	streamIters  = 6
)

// exitStreamImg builds the deprivileged guest: every iteration runs a hot
// ALU loop (so the fast engine forms blocks, chains and traces between
// exits), then one instance of each exit the VMM handles, including a
// round trip through user mode and a WFI woken by an interrupt.
func exitStreamImg(t *testing.T) []byte {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.La(isa.RegT0, "trap")
	b.Csrw(isa.CSRStvec, isa.RegT0)
	b.Li(isa.RegT1, 1<<isa.IntExt)
	b.Csrw(isa.CSRSie, isa.RegT1)
	b.Li(isa.RegS0, streamWPEmul)
	b.Li(isa.RegS1, streamWPLog)
	b.Li(isa.RegS2, streamMMIO)
	b.Li(isa.RegS3, streamLoads)
	b.Li(isa.RegS5, streamStores)
	b.Li(isa.RegS4, streamIters)
	b.Li(isa.RegT4, isa.StatusSIE)
	b.Label("loop")
	b.Li(isa.RegT2, 40)
	b.Label("inner")
	b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 3)
	b.R(isa.OpXOR, isa.RegA2, isa.RegA2, isa.RegA1)
	b.I(isa.OpADDI, isa.RegT2, isa.RegT2, -1)
	b.Branch(isa.OpBNE, isa.RegT2, isa.RegZero, "inner")
	b.Store(isa.OpSD, isa.RegA1, isa.RegS0, 0)  // host fault: write-protect, emulated
	b.Store(isa.OpSD, isa.RegA2, isa.RegS1, 8)  // host fault: write-protect, unprotected
	b.Store(isa.OpSD, isa.RegA1, isa.RegS1, 16) // lands once unprotected
	b.Load(isa.OpLD, isa.RegA3, isa.RegS3, 0)   // host fault: not present
	b.Store(isa.OpSW, isa.RegA3, isa.RegS5, 4)  // host fault: not present
	b.Store(isa.OpSW, isa.RegA1, isa.RegS2, 0)  // MMIO write
	b.Load(isa.OpLW, isa.RegA4, isa.RegS2, 4)   // MMIO read
	b.Ecall()                                   // hypercall
	b.Ebreak()                                  // guest trap
	b.Raw(0)                                    // guest trap: illegal
	b.Csrr(isa.RegT3, isa.CSRSscratch)          // privileged
	// Drop to user mode for one syscall; the trap handler returns to S.
	b.La(isa.RegT0, "user")
	b.Csrw(isa.CSRSepc, isa.RegT0)
	b.Li(isa.RegT1, isa.StatusSPP)
	b.Csrc(isa.CSRSstatus, isa.RegT1)
	b.Sret()
	b.Label("user")
	b.Ecall()
	// Idle until the VMM's device interrupt arrives.
	b.Csrs(isa.CSRSstatus, isa.RegT4)
	b.Wfi()
	b.Csrc(isa.CSRSstatus, isa.RegT4)
	b.I(isa.OpADDI, isa.RegS3, isa.RegS3, isa.PageSize)
	b.I(isa.OpADDI, isa.RegS5, isa.RegS5, isa.PageSize)
	b.I(isa.OpADDI, isa.RegS4, isa.RegS4, -1)
	b.Branch(isa.OpBNE, isa.RegS4, isa.RegZero, "loop")
	b.Halt(0)
	// Trap handler: an interrupt returns as taken; an exception skips the
	// trapping instruction and returns to S mode.
	b.Align(4)
	b.Label("trap")
	b.Csrr(isa.RegT5, isa.CSRScause)
	b.Branch(isa.OpBLT, isa.RegT5, isa.RegZero, "tret")
	b.Csrr(isa.RegT6, isa.CSRSepc)
	b.I(isa.OpADDI, isa.RegT6, isa.RegT6, 4)
	b.Csrw(isa.CSRSepc, isa.RegT6)
	b.Li(isa.RegT6, isa.StatusSPP)
	b.Csrs(isa.CSRSstatus, isa.RegT6)
	b.Label("tret")
	b.Sret()
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// streamExit is one entry of an exit stream.
type streamExit struct {
	r  ExitReason
	ex Exit
}

// handleStreamExit is the test's VMM. It reports whether the guest halted.
func handleStreamExit(t *testing.T, c *CPU, r ExitReason) bool {
	t.Helper()
	ex := &c.Exit
	switch r {
	case ExitQuantum:
	case ExitHalt:
		return true
	case ExitEcall:
		if ex.From == PrivU {
			c.InjectTrap(isa.CauseEcallU, 0)
			break
		}
		// Hypercall: count it and start a dirty-logging round.
		c.X[isa.RegA0]++
		c.Mem.WriteProtect(streamWPLog>>isa.PageShift, true)
		c.SkipInstr()
	case ExitPriv:
		if err := c.EmulatePrivileged(ex.Inst); err != nil {
			t.Fatalf("emulate %v: %v", ex, err)
		}
	case ExitGuestTrap:
		c.InjectTrap(ex.Cause, ex.Tval)
	case ExitWFI:
		c.RaiseIRQ(isa.IntExt)
	case ExitIntrWindow:
		irq := c.PendingInterrupt()
		c.InjectTrap(isa.CauseInterrupt|irq, 0)
		c.ClearIRQ(irq)
	case ExitMMIO:
		if !ex.MMIO.Write {
			c.FinishMMIORead(ex.MMIO, ex.MMIO.GPA^0x5A5A)
		}
	case ExitHostFault:
		gfn := ex.Mem.GPA >> isa.PageShift
		switch {
		case ex.Mem.Kind == mem.FaultNotPresent:
			if err := c.Mem.Populate(gfn); err != nil {
				t.Fatal(err)
			}
		case ex.Mem.Kind == mem.FaultWriteProt && gfn == streamWPLog>>isa.PageShift:
			c.Mem.WriteProtect(gfn, false)
		case ex.Mem.Kind == mem.FaultWriteProt:
			// Emulate the trapped store the way the VMM emulates a
			// page-table write: decode it and perform it privileged.
			w, f := c.Mem.ReadUint(c.PC, 4)
			if f != nil {
				t.Fatal(f)
			}
			in := isa.Decode(uint32(w))
			if f := c.Mem.WriteUintPriv(ex.Mem.GPA, storeSize(in.Op), c.X[in.Rs2]); f != nil {
				t.Fatal(f)
			}
			c.SkipInstr()
		default:
			t.Fatalf("unexpected %v", ex)
		}
	default:
		t.Fatalf("unexpected %v", ex)
	}
	return false
}

// exitStream runs a deprivileged CPU over the stream guest with the given
// per-Run budget and returns every exit it took.
func exitStream(t *testing.T, mk engine, budget uint64) ([]streamExit, *CPU) {
	t.Helper()
	c := newCPU(t, mk, exitStreamImg(t), 0x1000)
	c.Deprivileged = true
	c.IsMMIO = func(gpa uint64) bool { return gpa >= streamMMIO && gpa < streamMMIO+isa.PageSize }
	c.Mem.WriteProtect(streamWPEmul>>isa.PageShift, true)
	c.Mem.WriteProtect(streamWPLog>>isa.PageShift, true)
	for i := uint64(0); i < streamIters; i++ {
		c.Mem.Unmap(streamLoads>>isa.PageShift + i)
		c.Mem.Unmap(streamStores>>isa.PageShift + i)
	}
	var stream []streamExit
	for len(stream) < 100_000 {
		r := c.Run(budget)
		stream = append(stream, streamExit{r, c.Exit})
		if handleStreamExit(t, c, r) {
			return stream, c
		}
	}
	t.Fatalf("budget %d: no halt after %d exits (pc %#x)", budget, len(stream), c.PC)
	return nil, nil
}

func TestExitStreamParity(t *testing.T) {
	for _, budget := range []uint64{7, 60, 1_000_000} {
		fast, fc := exitStream(t, New, budget)
		ref, rc := exitStream(t, NewReference, budget)
		for i := 0; i < len(fast) && i < len(ref); i++ {
			if fast[i] != ref[i] {
				t.Fatalf("budget %d: exit %d diverged:\nfast %v %+v\nref  %v %+v",
					budget, i, fast[i].r, fast[i].ex, ref[i].r, ref[i].ex)
			}
		}
		if len(fast) != len(ref) {
			t.Fatalf("budget %d: %d fast exits vs %d ref exits", budget, len(fast), len(ref))
		}
		compareCPUs(t, "exit stream", fc, rc)
		if fc.X[isa.RegA0] != streamIters {
			t.Fatalf("budget %d: %d hypercalls, want %d", budget, fc.X[isa.RegA0], streamIters)
		}

		// Vacuity: the stream reaches every exit the handler serves.
		seen := map[string]bool{}
		for _, e := range fast {
			key := e.r.String()
			switch {
			case e.r == ExitHostFault:
				key += "/" + e.ex.Mem.Kind.String()
			case e.r == ExitMMIO && e.ex.MMIO.Write:
				key += "/write"
			case e.r == ExitMMIO:
				key += "/read"
			case e.r == ExitEcall && e.ex.From == PrivU:
				key += "/u"
			case e.r == ExitEcall:
				key += "/s"
			}
			seen[key] = true
		}
		want := []string{"priv", "ecall/s", "ecall/u", "guest-trap", "host-fault/write-protect",
			"host-fault/not-present", "mmio/read", "mmio/write", "wfi", "intr-window", "halt", "quantum"}
		for _, k := range want {
			if k == "quantum" && budget == 1_000_000 {
				continue
			}
			if !seen[k] {
				t.Errorf("budget %d: stream never took a %s exit", budget, k)
			}
		}
	}
}
