// Overcommit: run a guest whose working set exceeds host memory and watch
// the memory-service stack hold it together — balloon policy, host swap
// with page pinning, and content dedup reclaiming what identical VMs share.
package main

import (
	"fmt"
	"log"

	"govisor"
	"govisor/internal/balloon"
	"govisor/internal/mem"
)

func main() {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("overcommit sweep: 900-page working set vs shrinking host pool")
	fmt.Printf("%10s %12s %10s %10s %12s\n",
		"pool (pg)", "guest Mcyc", "swap-outs", "swap-ins", "slowdown")

	var baseline float64
	for _, frames := range []uint64{2048, 1024, 896, 832, 768} {
		pool := govisor.NewPool(frames)
		vm, err := govisor.NewVM(pool, govisor.Config{
			Name: "oc", Mode: govisor.ModeHW, MemBytes: 8 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		swap := balloon.NewSwapper()
		ctl := &balloon.Controller{
			Policy: balloon.DefaultPolicy(), Pool: pool,
			Spaces: []*mem.GuestPhys{vm.Mem}, Swap: swap,
		}
		vm.ReclaimHook = func() bool { return ctl.ReclaimOne() }
		source := swap.Source(vm.Mem)
		vm.PageSource = func(gfn uint64) ([]byte, bool) {
			page, ok := source(gfn)
			if ok {
				vm.CPU.AddCycles(20_000) // SSD-class swap-in latency
			}
			return page, ok
		}
		govisor.MemTouch(6, 900, 20).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			log.Fatal(err)
		}
		if st := vm.RunToHalt(50_000_000_000); st != govisor.StateHalted {
			log.Fatalf("pool %d: state %v (%v)", frames, st, vm.Err)
		}
		cyc := float64(cycles(vm))
		if baseline == 0 {
			baseline = cyc
		}
		fmt.Printf("%10d %12.1f %10d %10d %11.2fx\n",
			frames, cyc/1e6, swap.SwapOuts, swap.SwapIns, cyc/baseline)
	}

	fmt.Println("\nnow 8 identical idle guests + dedup:")
	pool := govisor.NewPool(4096)
	var vms []*govisor.VM
	for i := 0; i < 8; i++ {
		vm, err := govisor.NewVM(pool, govisor.Config{
			Name: fmt.Sprintf("vm%d", i), Mode: govisor.ModeHW, MemBytes: 8 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		govisor.MemTouch(1, 64, 0).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			log.Fatal(err)
		}
		vm.RunToHalt(10_000_000_000)
		vms = append(vms, vm)
	}
	before := pool.InUse()
	spaces := make([]*mem.GuestPhys, 0, len(vms))
	for _, vm := range vms {
		spaces = append(spaces, vm.Mem)
	}
	sc := govisor.NewDedupScanner(pool)
	sc.ScanAll(spaces)
	fmt.Printf("frames: %d → %d (%.0f%% reclaimed; %d pages merged)\n",
		before, pool.InUse(),
		100*float64(before-pool.InUse())/float64(before),
		sc.Stats.PagesMerged)
}

func cycles(vm *govisor.VM) uint64 {
	var start, end uint64
	for _, m := range vm.Markers {
		switch m.ID {
		case 1:
			start = m.Cycles
		case 2:
			end = m.Cycles
		}
	}
	return end - start
}
