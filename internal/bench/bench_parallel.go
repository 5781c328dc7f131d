package bench

import (
	"fmt"
	"runtime"
	"time"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/metrics"
	"govisor/internal/sched"
)

// m2Fleet builds the M2 scale-out fleet: 8 CPU-bound VMs on an 8-PCPU host
// under the credit scheduler. PCPUs is fixed at the fleet size so the epoch
// schedule — and therefore every simulated number — is identical at every
// worker count; only the host-side worker pool varies.
func m2Fleet() (*core.Host, error) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	const vms = 8
	h := core.NewHost(uint64(vms+2)*(benchRAM>>isa.PageShift), vms, sched.NewCredit())
	for i := 0; i < vms; i++ {
		vm, err := h.CreateVM(core.Config{
			Name: fmt.Sprintf("m2-%d", i), Mode: core.ModeHW, MemBytes: benchRAM,
		})
		if err != nil {
			return nil, err
		}
		// ~3.7M guest cycles per VM: several 1 ms scheduling epochs, so the
		// measurement covers lease/barrier overhead, not just one dispatch.
		guest.Compute(scaled(600_000), 0).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		h.AddToScheduler(i, 256, 0)
	}
	return h, nil
}

// M2ParallelFleet: host wall-clock for an 8-VM fleet under RunParallel at
// 1/2/4/8 workers. This is a microbenchmark of the simulator, not of the
// simulated machine: guest cycles, retired instructions and the host
// clock must be byte-identical at every worker count (enforced below, the
// transparency property TestDifferentialParallelInvisible proves in full),
// while wall-clock drops roughly with min(workers, host cores). On a
// single-core CI runner the speedup column degenerates to ≈1× — the guest-
// visible equality columns are the part that must always hold.
func M2ParallelFleet() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"workers", "wall ms", "host ns/guest-instr", "speedup", "guest cycles (vm0)", "host clock",
	}}
	type result struct {
		wall    time.Duration
		instret uint64
		cycles  uint64
		now     uint64
	}
	run := func(workers int) (result, error) {
		h, err := m2Fleet()
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		h.RunParallel(workers, benchBudget)
		wall := time.Since(start)
		if !h.AllHalted() {
			return result{}, fmt.Errorf("bench: M2 fleet did not halt at %d workers", workers)
		}
		var instret uint64
		for _, vm := range h.VMs {
			if vm.HaltCode != 0 {
				return result{}, fmt.Errorf("bench: M2 guest %s halt %#x cause %d",
					vm.Name, vm.HaltCode, vm.Result(gabi.PResult3))
			}
			instret += vm.CPU.Instret
		}
		return result{wall, instret, h.VMs[0].CPU.Cycles, h.Now}, nil
	}
	// Warm up allocator and host caches before measuring.
	if _, err := run(runtime.NumCPU()); err != nil {
		return nil, err
	}
	var base result
	for _, workers := range []int{1, 2, 4, 8} {
		r, err := run(workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = r
		}
		// Transparency, enforced at benchmark time: worker count must not
		// leak into anything the simulation can observe.
		if r.cycles != base.cycles || r.now != base.now || r.instret != base.instret {
			return nil, fmt.Errorf("bench: parallel engine not invisible at %d workers: "+
				"(cyc=%d now=%d ret=%d) vs (cyc=%d now=%d ret=%d)",
				workers, r.cycles, r.now, r.instret, base.cycles, base.now, base.instret)
		}
		t.AddRow(fmt.Sprint(workers),
			fmt.Sprintf("%.1f", float64(r.wall.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.wall.Nanoseconds())/float64(r.instret)),
			fmt.Sprintf("%.2fx", float64(base.wall)/float64(r.wall)),
			fmt.Sprint(r.cycles), fmt.Sprint(r.now))
	}
	return t, nil
}
