// Fleet: run the same 8-VM consolidation fleet under the parallel host
// execution engine at increasing worker counts. The simulated results —
// guest cycles, per-VM work, fairness — are byte-identical at every worker
// count (the engine's transparency guarantee); only host wall-clock changes,
// dropping with min(workers, host cores). An epoch-barrier dedup scan shows
// where cross-VM services live under parallel execution.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"govisor"
)

const (
	vmCount = 8
	vmRAM   = 4 << 20
)

func buildFleet() (*govisor.Host, error) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		return nil, err
	}
	host := govisor.NewHost(uint64(vmCount+2)*(vmRAM>>12), vmCount, govisor.NewCredit())
	for i := 0; i < vmCount; i++ {
		vm, err := host.CreateVM(govisor.Config{
			Name: fmt.Sprintf("vm%02d", i), Mode: govisor.ModeHW, MemBytes: vmRAM,
		})
		if err != nil {
			return nil, err
		}
		// Half the fleet computes, half dirties memory — identical kernels,
		// so the barrier dedup scan has pages to merge.
		if i%2 == 0 {
			govisor.Compute(120_000, 0).Apply(vm)
		} else {
			govisor.Dirty(40, 24, 300).Apply(vm)
		}
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		host.AddToScheduler(i, 256, 0)
	}
	return host, nil
}

func main() {
	fmt.Printf("fleet: %d VMs on an %d-PCPU simulated host, credit scheduler, %d host cores\n",
		vmCount, vmCount, runtime.NumCPU())
	fmt.Printf("%8s %10s %9s %16s %14s %12s\n",
		"workers", "wall ms", "speedup", "aggregate work", "guest cycles", "dedup saved")

	var baseWall time.Duration
	var baseWork, baseCycles uint64
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		host, err := buildFleet()
		if err != nil {
			log.Fatal(err)
		}
		// Cross-VM services run at epoch barriers: here, a KSM pass over the
		// fleet every epoch.
		scanner := govisor.NewDedupScanner(host.Pool)
		var spaces []*govisor.GuestPhys
		for _, vm := range host.VMs {
			spaces = append(spaces, vm.Mem)
		}
		host.EpochFunc = func() { scanner.ScanAll(spaces) }

		start := time.Now()
		host.RunParallel(workers, 2_000_000_000)
		wall := time.Since(start)
		if !host.AllHalted() {
			log.Fatalf("fleet did not halt at %d workers", workers)
		}

		var work, cycles uint64
		for _, vm := range host.VMs {
			work += vm.Result(govisor.ResultPrimary)
			cycles += vm.CPU.Cycles
		}
		if baseWall == 0 {
			baseWall, baseWork, baseCycles = wall, work, cycles
		}
		if work != baseWork || cycles != baseCycles {
			log.Fatalf("worker count leaked into guest state: work %d vs %d, cycles %d vs %d",
				work, baseWork, cycles, baseCycles)
		}
		fmt.Printf("%8d %10.1f %8.2fx %16d %14d %12d\n",
			workers, float64(wall.Microseconds())/1000,
			float64(baseWall)/float64(wall), work, cycles, scanner.Stats.FramesFreed)
	}
	fmt.Println("\nguest-visible numbers identical at every worker count — parallelism is host-side only")
}
