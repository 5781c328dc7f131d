// Package bench implements the reproduced evaluation: one runner per table
// or figure in EXPERIMENTS.md. Each runner executes the experiment on the
// simulated machine and returns a rendered table; cmd/benchsuite prints
// them all. Host time is measured by benchmark/ (go run ./benchmark), not
// here.
package bench

import (
	"fmt"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/metrics"
	"govisor/internal/vcpu"
)

// Standard experiment sizing. Kept modest so the full suite runs in
// minutes; the shapes, not the absolute counts, are the result.
const (
	benchRAM    = 8 << 20
	benchPool   = 4 * benchRAM >> isa.PageShift
	benchBudget = 20_000_000_000
)

// AllModes lists the execution modes in comparison order.
var AllModes = []core.Mode{core.ModeNative, core.ModeHW, core.ModePara, core.ModeTrap}

// newVM builds a VM in the given mode with default sizing.
func newVM(mode core.Mode, cfg func(*core.Config)) (*core.VM, error) {
	c := core.Config{Name: "bench-" + mode.String(), Mode: mode, MemBytes: benchRAM}
	if cfg != nil {
		cfg(&c)
	}
	return core.NewVM(mem.NewPool(benchPool), c)
}

// runKernel boots the universal kernel with a workload and runs to halt.
func runKernel(mode core.Mode, w guest.Workload, cfg func(*core.Config)) (*core.VM, error) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	vm, err := newVM(mode, cfg)
	if err != nil {
		return nil, err
	}
	w.Apply(vm)
	if err := vm.Boot(kernel); err != nil {
		return nil, err
	}
	if st := vm.RunToHalt(benchBudget); st != core.StateHalted {
		return nil, fmt.Errorf("bench: %v guest ended %v (err %v, halt %#x)", mode, st, vm.Err, vm.HaltCode)
	}
	if vm.HaltCode != 0 {
		return nil, fmt.Errorf("bench: %v guest panicked: halt %#x cause %d", mode, vm.HaltCode, vm.Result(gabi.PResult3))
	}
	return vm, nil
}

// runProgram boots a standalone guest image and runs it to halt.
func runProgram(mode core.Mode, img []byte, attach func(vm *core.VM) error) (*core.VM, error) {
	vm, err := newVM(mode, nil)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		if err := attach(vm); err != nil {
			return nil, err
		}
	}
	if err := vm.Boot(img); err != nil {
		return nil, err
	}
	if st := vm.RunToHalt(benchBudget); st != core.StateHalted || vm.HaltCode != 0 {
		return nil, fmt.Errorf("bench: guest ended %v halt %#x (err %v)", st, vm.HaltCode, vm.Err)
	}
	return vm, nil
}

// region returns the cycles between markers 1 and 2.
func region(vm *core.VM) uint64 {
	var start, end uint64
	for _, m := range vm.Markers {
		switch m.ID {
		case 1:
			start = m.Cycles
		case 2:
			end = m.Cycles
		}
	}
	if end <= start {
		return 0
	}
	return end - start
}

// T1PrivilegedOps: cycles per privileged operation under each mode.
func T1PrivilegedOps() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"operation", "native", "hw-assist", "para", "trap&emulate",
	}}

	const n = 2000
	row := func(name string, w guest.Workload, perOp uint64) error {
		cells := []string{name}
		for _, mode := range AllModes {
			vm, err := runKernel(mode, w, nil)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.0f", float64(region(vm))/float64(perOp)))
		}
		// Reorder: native, hw, para, trap matches AllModes already.
		t.AddRow(cells...)
		return nil
	}
	if err := row("csr write+read pair", guest.CSRLoop(n), n); err != nil {
		return nil, err
	}
	if err := row("syscall round trip", guest.Syscall(n), n); err != nil {
		return nil, err
	}
	return t, nil
}

// T2ExitLatency: cost per exit by reason, measured from counters.
func T2ExitLatency() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{"exit reason", "count", "cycles/exit (incl. emulation)"}}
	costs := vcpu.DefaultCosts()
	// Microcalibration rows straight from the cost model (the fixed part)…
	t.AddRow("world switch (fixed)", "-", fmt.Sprint(costs.ExitRound))
	t.AddRow("hypercall dispatch", "-", fmt.Sprint(costs.ExitRound+costs.Hypercall))
	t.AddRow("privileged emulation", "-", fmt.Sprint(costs.ExitRound+costs.Emulate))
	t.AddRow("trap injection", "-", fmt.Sprint(costs.ExitRound+costs.Inject))
	// …and a measured row: CSR loop under trap mode.
	vm, err := runKernel(core.ModeTrap, guest.CSRLoop(2000), nil)
	if err != nil {
		return nil, err
	}
	exits := vm.CPU.Stats.Exits[vcpu.ExitPriv]
	t.AddRow("measured: trapped CSR op", fmt.Sprint(exits),
		fmt.Sprintf("%.0f", float64(region(vm))/float64(exits)))
	return t, nil
}

// F3PrivDensity: slowdown vs native as privileged-op density sweeps.
func F3PrivDensity() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"ALU ops per priv op", "native", "hw-assist", "para", "trap&emulate",
	}}
	for _, period := range []uint64{0, 1000, 200, 50, 10} {
		label := "none"
		if period > 0 {
			label = fmt.Sprint(period)
		}
		cells := []string{label}
		var native float64
		for _, mode := range AllModes {
			vm, err := runKernel(mode, guest.Compute(500, period), nil)
			if err != nil {
				return nil, err
			}
			c := float64(region(vm))
			if mode == core.ModeNative {
				native = c
			}
			cells = append(cells, fmt.Sprintf("%.2fx", c/native))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// F4WorkingSet: memory-toucher cycles/iteration vs working-set pages,
// shadow vs nested (and native for reference).
func F4WorkingSet() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"working set (pages)", "native", "shadow (trap)", "nested (hw)", "nested/shadow",
	}}
	const iters = 24
	for _, pages := range []uint64{64, 192, 256, 512, 1024} {
		var cyc [3]float64
		for i, mode := range []core.Mode{core.ModeNative, core.ModeTrap, core.ModeHW} {
			vm, err := runKernel(mode, guest.MemTouch(iters, pages, 0), nil)
			if err != nil {
				return nil, err
			}
			cyc[i] = float64(region(vm)) / iters
		}
		t.AddRow(fmt.Sprint(pages),
			fmt.Sprintf("%.0f", cyc[0]), fmt.Sprintf("%.0f", cyc[1]),
			fmt.Sprintf("%.0f", cyc[2]), fmt.Sprintf("%.2f", cyc[2]/cyc[1]))
	}
	return t, nil
}

// F5PTChurn: map/touch/unmap loops across the modes (+ para batched).
func F5PTChurn() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"mode", "cycles/page-op", "exits", "pt-write emuls", "mmu hypercalls",
	}}
	const iters = 4
	ops := float64(iters * core.ChurnWindowPages * 2) // map + unmap
	for _, mode := range AllModes {
		vm, err := runKernel(mode, guest.PTChurn(iters, false), nil)
		if err != nil {
			return nil, err
		}
		exits := vm.CPU.Stats.Exits[vcpu.ExitPriv] + vm.CPU.Stats.Exits[vcpu.ExitHostFault] +
			vm.CPU.Stats.Exits[vcpu.ExitEcall] + vm.CPU.Stats.Exits[vcpu.ExitShadowMiss]
		t.AddRow(mode.String(),
			fmt.Sprintf("%.0f", float64(region(vm))/ops),
			fmt.Sprint(exits), fmt.Sprint(vm.Stats.PTWriteEmuls), fmt.Sprint(vm.Stats.ParaMaps))
	}
	// Paravirtual with multicall batching.
	vm, err := runKernel(core.ModePara, guest.PTChurn(iters, true), nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("para (batched)",
		fmt.Sprintf("%.0f", float64(region(vm))/ops),
		fmt.Sprint(vm.CPU.Stats.Exits[vcpu.ExitEcall]),
		fmt.Sprint(vm.Stats.PTWriteEmuls), fmt.Sprint(vm.Stats.ParaMaps))
	return t, nil
}
