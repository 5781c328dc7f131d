package core_test

import (
	"testing"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
)

// TestTrapLoopsDoNotAllocate: once warm, a slice of a trap-and-emulate
// guest allocates nothing on the host. Every exit these loops take — the
// privileged CSR exits, the reflected syscalls and the write-protect traps
// of shadow-tracked page-table stores — is carried by the CPU's exit record
// and a by-value guest-physical fault, so a heap allocation per exit shows
// up here as a nonzero count.
func TestTrapLoopsDoNotAllocate(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    guest.Workload
		exit vcpu.ExitReason // the loop's exit
	}{
		{"ptchurn", guest.PTChurn(1<<30, false), vcpu.ExitHostFault},
		{"csr", guest.CSRLoop(1 << 40), vcpu.ExitPriv},
		{"syscall", guest.Syscall(1 << 40), vcpu.ExitEcall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ram = 8 << 20
			vm, err := core.NewVM(mem.NewPool(2*ram>>isa.PageShift), core.Config{Name: tc.name, Mode: core.ModeTrap, MemBytes: ram})
			if err != nil {
				t.Fatal(err)
			}
			tc.w.Apply(vm)
			if err := vm.Boot(kernel); err != nil {
				t.Fatal(err)
			}
			const slice = 200_000
			for i := 0; i < 100; i++ {
				vm.Step(slice)
			}
			before := vm.CPU.Stats.Exits[tc.exit]
			n := testing.AllocsPerRun(50, func() { vm.Step(slice) })
			if vm.State != core.StateRunning {
				t.Fatalf("guest left the loop: state %v, halt code %d", vm.State, vm.HaltCode)
			}
			if vm.CPU.Stats.Exits[tc.exit] == before {
				t.Fatalf("the measured slices took no %v exits", tc.exit)
			}
			if n != 0 {
				t.Fatalf("%v allocations per %d-cycle slice, want 0", n, slice)
			}
		})
	}
}

// TestRunParallelEpochAllocatesNothing: on a warm compute fleet the epoch
// loop allocates nothing per epoch, so runs of 20, 200 and 2000 epochs
// allocate the same up to a bound that does not grow with the run. Every run
// pays the same fixed cost (worker goroutines, the job channel, the switch
// set); a per-epoch or per-lease allocation — a lease record, a scheduler
// table — shows as growth of 180 or more.
//
// The bound is the Go runtime's, not govisor's: testing.AllocsPerRun counts
// process-wide mallocs, and a goroutine that parks on a channel or the
// WaitGroup takes a runtime sudog, which the runtime allocates when its
// per-P cache is empty. At most workers+1 goroutines (the workers and the
// epoch loop) are parked at once, so a run can need at most that many more
// sudogs than another, however long it is.
func TestRunParallelEpochAllocatesNothing(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	const (
		vms     = 4
		workers = 2
		ram     = 1 << 20
		quantum = 20_000
	)
	cs := sched.NewCredit()
	cs.Quantum = quantum
	h := core.NewHost(2*vms*ram>>isa.PageShift, 2, cs)
	for i := 0; i < vms; i++ {
		vm, err := h.CreateVM(core.Config{Name: "compute", Mode: core.ModeHW, MemBytes: ram, EagerMem: true})
		if err != nil {
			t.Fatal(err)
		}
		guest.Compute(1<<40, 0).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	h.RunParallel(workers, 100*quantum)
	run := func(epochs uint64) float64 {
		return testing.AllocsPerRun(1, func() { h.RunParallel(workers, epochs*quantum) })
	}
	short := run(20)
	for _, epochs := range []uint64{200, 2000} {
		if long := run(epochs); long > short+workers+1 {
			t.Fatalf("allocations: %v over 20 epochs, %v over %d (runtime slack %d)", short, long, epochs, workers+1)
		}
	}
	if vm := h.VMs[0]; vm.State != core.StateRunning {
		t.Fatalf("guest left the loop: state %v, halt code %d", vm.State, vm.HaltCode)
	}
}
