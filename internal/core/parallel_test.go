package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/sched"
)

// idleTickProgram arms the timer, sleeps in WFI, and repeats `ticks` times —
// the wakeup path RunParallel must reproduce exactly.
func idleTickProgram(t *testing.T, ticks int64, period uint64) []byte {
	return miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegS0, uint64(ticks))
		b.Label("loop")
		b.Li(isa.RegA7, gabi.HCGetTime)
		b.Ecall()
		b.Li(isa.RegT0, period)
		b.R(isa.OpADD, isa.RegA0, isa.RegA0, isa.RegT0)
		b.Li(isa.RegA7, gabi.HCSetTimer)
		b.Ecall()
		b.Wfi()
		b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "loop")
		b.Halt(0)
	})
}

// parallelFixture builds a host with 3 spinning VMs and 1 timer-idle VM
// under the given scheduler.
func parallelFixture(t *testing.T, mk func() LeaseScheduler) *Host {
	t.Helper()
	h := NewHost(tPool, 2, mk())
	spin := spinProgram(t)
	idle := idleTickProgram(t, 4, 80_000)
	for i := 0; i < 3; i++ {
		vm, err := h.CreateVM(Config{Name: "spin", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(spin); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	vm, err := h.CreateVM(Config{Name: "idle", Mode: ModeHW, MemBytes: tRAM})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(idle); err != nil {
		t.Fatal(err)
	}
	h.AddToScheduler(3, 256, 0)
	return h
}

// wideFleet builds 8 counting VMs on an 8-PCPU host under the credit
// scheduler, so every epoch holds 8 concurrent leases. Each VM counts to a
// different bound and halts, so leases end early and VMs leave the fleet
// in different epochs (about eight of them, at a 0.2 ms quantum).
func wideFleet(t *testing.T) *Host {
	t.Helper()
	const vms = 8
	cs := sched.NewCredit()
	cs.Quantum = 200_000
	h := NewHost(2*vms*tRAM>>isa.PageShift, vms, cs)
	for i := 0; i < vms; i++ {
		img := miniProgram(t, func(b *asm.Builder) {
			b.Li(isa.RegT0, 0)
			b.Li(isa.RegT2, uint64(40_000+10_000*i))
			b.Li(isa.RegT1, gabi.ParamBase+gabi.PResult0*8)
			b.Label("loop")
			b.I(isa.OpADDI, isa.RegT0, isa.RegT0, 1)
			b.Store(isa.OpSD, isa.RegT0, isa.RegT1, 0)
			b.Branch(isa.OpBNE, isa.RegT0, isa.RegT2, "loop")
			b.Halt(0)
		})
		vm, err := h.CreateVM(Config{Name: "wide", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	return h
}

type hostSnapshot struct {
	now    uint64
	cycles []uint64
	pcs    []uint64
	work   []uint64
	shares []float64
}

func snapshotHost(h *Host) hostSnapshot {
	s := hostSnapshot{now: h.Now}
	for _, vm := range h.VMs {
		s.cycles = append(s.cycles, vm.CPU.Cycles)
		s.pcs = append(s.pcs, vm.CPU.PC)
		s.work = append(s.work, vm.Result(gabi.PResult0))
	}
	if sh, ok := h.Sched.(interface{ Shares() []float64 }); ok {
		s.shares = sh.Shares()
	}
	return s
}

// TestRunParallelIdenticalAcrossWorkers: the whole point of the epoch
// engine — worker count must never leak into any guest-visible or scheduler-
// visible number, for every policy, including timer wakeups mid-run, and
// with as many concurrent leases as workers (the 8-PCPU wide fleet).
func TestRunParallelIdenticalAcrossWorkers(t *testing.T) {
	type fleetCase struct {
		name    string
		build   func() *Host
		limit   uint64
		workers []int
		halts   bool // every run must end with the whole fleet halted
	}
	var cases []fleetCase
	for name, mk := range map[string]func() LeaseScheduler{
		"rr":     func() LeaseScheduler { return sched.NewRoundRobin(DefaultQuantum) },
		"credit": func() LeaseScheduler { return sched.NewCredit() },
		"cfs":    func() LeaseScheduler { return sched.NewCFS() },
	} {
		cases = append(cases, fleetCase{name, func() *Host { return parallelFixture(t, mk) },
			40_000_000 / raceScale, []int{1, 2, 3, 4}, false})
	}
	cases = append(cases, fleetCase{"wide-credit", func() *Host { return wideFleet(t) },
		1_000_000_000, []int{1, 2, 4, 8}, true})
	for _, c := range cases {
		name := c.name
		var ref hostSnapshot
		for _, workers := range c.workers {
			h := c.build()
			h.RunParallel(workers, c.limit)
			if c.halts && !h.AllHalted() {
				t.Fatalf("%s w=%d: fleet did not halt", name, workers)
			}
			got := snapshotHost(h)
			if workers == 1 {
				ref = got
				continue
			}
			if got.now != ref.now {
				t.Errorf("%s w=%d: host clock %d != %d", name, workers, got.now, ref.now)
			}
			for i := range got.cycles {
				if got.cycles[i] != ref.cycles[i] || got.pcs[i] != ref.pcs[i] || got.work[i] != ref.work[i] {
					t.Errorf("%s w=%d vm%d: (cyc=%d pc=%#x work=%d) != (cyc=%d pc=%#x work=%d)",
						name, workers, i, got.cycles[i], got.pcs[i], got.work[i],
						ref.cycles[i], ref.pcs[i], ref.work[i])
				}
			}
			for i := range got.shares {
				if got.shares[i] != ref.shares[i] {
					t.Errorf("%s w=%d: scheduler shares diverged: %v vs %v", name, workers, got.shares, ref.shares)
					break
				}
			}
		}
	}
}

// TestRunParallelRunsAllToHalt: halting guests finish under the pool and the
// engine reports completion by going idle.
func TestRunParallelRunsAllToHalt(t *testing.T) {
	h := NewHost(tPool, 4, sched.NewCredit())
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegT0, 5000)
		b.Label("loop")
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, -1)
		b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "loop")
		b.Halt(0)
	})
	for i := 0; i < 6; i++ {
		vm, err := h.CreateVM(Config{Name: "v", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	elapsed := h.RunParallel(3, 1_000_000_000)
	if !h.AllHalted() {
		for _, vm := range h.VMs {
			t.Logf("vm state %v err %v", vm.State, vm.Err)
		}
		t.Fatal("fleet did not halt")
	}
	if elapsed == 0 {
		t.Fatal("no host time elapsed")
	}
	if !strings.Contains(h.String(), "vms=6") {
		t.Fatalf("host String %q", h.String())
	}
}

// TestRunParallelSharesCPUFairly: equal weights on a 1-PCPU host must stay
// within 25% of each other.
func TestRunParallelSharesCPUFairly(t *testing.T) {
	cs := sched.NewCredit()
	// Keep enough dispatches in the window for fairness to converge even
	// with the race-scaled budget.
	cs.Quantum = 200_000
	h := NewHost(tPool, 1, cs)
	img := spinProgram(t)
	for i := 0; i < 3; i++ {
		vm, err := h.CreateVM(Config{Name: "vm", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	h.RunParallel(4, 60_000_000/raceScale)
	var lo, hi uint64
	for i, vm := range h.VMs {
		c := vm.Result(gabi.PResult0)
		if c == 0 {
			t.Fatalf("vm %d starved", i)
		}
		if i == 0 || c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi) > 1.25*float64(lo) {
		t.Fatalf("unfair split: lo=%d hi=%d", lo, hi)
	}
}

// TestRunParallelEpochFunc: the barrier hook runs, serially, every epoch.
func TestRunParallelEpochFunc(t *testing.T) {
	h := NewHost(tPool, 2, sched.NewCredit())
	img := spinProgram(t)
	for i := 0; i < 2; i++ {
		vm, _ := h.CreateVM(Config{Name: "vm", Mode: ModeHW, MemBytes: tRAM})
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	var epochs atomic.Int64
	var inHook atomic.Int64
	h.EpochFunc = func() {
		if inHook.Add(1) != 1 {
			t.Error("EpochFunc reentered")
		}
		epochs.Add(1)
		inHook.Add(-1)
	}
	h.RunParallel(2, 10_000_000/raceScale)
	if epochs.Load() == 0 {
		t.Fatal("EpochFunc never ran")
	}
}

// TestRunParallelAfterLateVM: a VM created and scheduled after a first
// RunParallel joins the host's per-VM record, and the whole fleet — the
// late timer-idle VM included — runs to halt.
func TestRunParallelAfterLateVM(t *testing.T) {
	h := NewHost(tPool, 2, sched.NewCredit())
	count := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegT0, 1_000_000)
		b.Label("loop")
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, -1)
		b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "loop")
		b.Halt(0)
	})
	add := func(img []byte) {
		vm, err := h.CreateVM(Config{Name: "v", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(len(h.VMs)-1, 256, 0)
	}
	add(count)
	add(count)
	h.RunParallel(2, 500_000)
	if h.AllHalted() {
		t.Fatal("first run already halted the fleet")
	}
	add(idleTickProgram(t, 3, 50_000))
	h.RunParallel(2, 1_000_000_000)
	for i, vm := range h.VMs {
		if vm.State != StateHalted || vm.HaltCode != 0 {
			t.Fatalf("vm%d: state %v, halt code %d, err %v", i, vm.State, vm.HaltCode, vm.Err)
		}
	}
}
