// Consolidation: pack an increasing number of VMs onto one simulated host
// and measure aggregate and per-VM throughput under the credit scheduler,
// plus memory savings from page dedup across the identical guests — the
// "how many servers fit in one box" question server virtualization answers.
package main

import (
	"fmt"
	"log"

	"govisor"
)

const (
	vmRAM    = 4 << 20
	hostTime = 100_000_000 // 100 ms of host time per configuration
)

func main() {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("consolidation on a 4-core simulated host, credit scheduler")
	fmt.Printf("%4s %16s %14s %12s %14s\n",
		"VMs", "aggregate work", "per-VM work", "fairness", "dedup saved")

	for _, n := range []int{1, 2, 4, 8, 16} {
		cs := govisor.NewCredit()
		host := govisor.NewHost(uint64(n+2)*(vmRAM>>12), 4, cs)
		for i := 0; i < n; i++ {
			vm, err := host.CreateVM(govisor.Config{
				Name: fmt.Sprintf("vm%02d", i), Mode: govisor.ModeHW, MemBytes: vmRAM,
			})
			if err != nil {
				log.Fatal(err)
			}
			govisor.Dirty(0, 16, 200).Apply(vm)
			if err := vm.Boot(kernel); err != nil {
				log.Fatal(err)
			}
			host.AddToScheduler(i, 256, 0)
		}
		host.RunParallel(1, hostTime)

		var total uint64
		shares := make([]float64, 0, n)
		for _, vm := range host.VMs {
			w := vm.Result(govisor.ResultPrimary)
			total += w
			shares = append(shares, float64(w))
		}
		// Dedup the identical guests and report the saving.
		pool := host.Pool
		before := pool.InUse()
		spaces := make([]*govisor.GuestPhys, 0, n)
		for _, vm := range host.VMs {
			spaces = append(spaces, vm.Mem)
		}
		govisor.NewDedupScanner(pool).ScanAll(spaces)
		saved := before - pool.InUse()

		fmt.Printf("%4d %16d %14d %11.3f %11d pg\n",
			n, total, total/uint64(n), jain(shares), saved)
	}
	fmt.Println("\naggregate work scales until the 4 physical cores saturate, then")
	fmt.Println("per-VM share drops proportionally — the 3–4:1 consolidation point.")
}

func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
