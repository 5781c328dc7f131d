// Package govisor_test hosts the benchmark harness: one testing.B benchmark
// per reproduced table/figure (delegating to internal/bench, the same
// runners cmd/benchsuite prints), plus microbenchmarks of the hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one experiment's table with output:
//
//	go test -bench=BenchmarkF7 -v
package govisor_test

import (
	"testing"

	"govisor"
	"govisor/internal/bench"
	"govisor/internal/metrics"
)

// runExperiment wraps a bench runner as a testing.B benchmark. The table is
// logged once so -v shows the reproduced rows.
func runExperiment(b *testing.B, id string) {
	var exp *bench.Experiment
	for _, e := range bench.All() {
		if e.ID == id {
			exp = &e
			break
		}
	}
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var table *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		table = t
	}
	if table != nil {
		b.Logf("%s — %s\n%s", exp.ID, exp.Name, table.String())
	}
}

func BenchmarkT1_PrivilegedOps(b *testing.B)  { runExperiment(b, "T1") }
func BenchmarkT2_ExitLatency(b *testing.B)    { runExperiment(b, "T2") }
func BenchmarkF3_PrivDensity(b *testing.B)    { runExperiment(b, "F3") }
func BenchmarkF4_WorkingSet(b *testing.B)     { runExperiment(b, "F4") }
func BenchmarkF5_PTChurn(b *testing.B)        { runExperiment(b, "F5") }
func BenchmarkT6_IOPath(b *testing.B)         { runExperiment(b, "T6") }
func BenchmarkF7_Migration(b *testing.B)      { runExperiment(b, "F7") }
func BenchmarkF8_PrecopyRounds(b *testing.B)  { runExperiment(b, "F8") }
func BenchmarkF9_Dedup(b *testing.B)          { runExperiment(b, "F9") }
func BenchmarkT10_Balloon(b *testing.B)       { runExperiment(b, "T10") }
func BenchmarkF11_Sched(b *testing.B)         { runExperiment(b, "F11") }
func BenchmarkT12_WeightCap(b *testing.B)     { runExperiment(b, "T12") }
func BenchmarkT13_Consolidation(b *testing.B) { runExperiment(b, "T13") }
func BenchmarkT14_Provision(b *testing.B)     { runExperiment(b, "T14") }
func BenchmarkF15_COWDepth(b *testing.B)      { runExperiment(b, "F15") }
func BenchmarkA1_ParaBatching(b *testing.B)   { runExperiment(b, "A1") }
func BenchmarkA2_ASIDFlush(b *testing.B)      { runExperiment(b, "A2") }
func BenchmarkA3_PrecopyBounds(b *testing.B)  { runExperiment(b, "A3") }
func BenchmarkA4_QueueDepth(b *testing.B)     { runExperiment(b, "A4") }
func BenchmarkM7_Evacuation(b *testing.B)     { runExperiment(b, "M7") }

// ---- microbenchmarks of the simulator's own hot paths ----

// BenchmarkInterpreterMIPS measures raw interpreter throughput
// (instructions per second of host time).
func BenchmarkInterpreterMIPS(b *testing.B) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		vm, err := govisor.NewVM(govisor.NewPool(8<<20>>12), govisor.Config{
			Name: "mips", Mode: govisor.ModeNative, MemBytes: 4 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		govisor.Compute(2000, 0).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			b.Fatal(err)
		}
		if st := vm.RunToHalt(1e9); st != govisor.StateHalted {
			b.Fatalf("state %v", st)
		}
		instrs += vm.CPU.Instret
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
}

// BenchmarkVMBoot measures VM creation + boot latency.
func BenchmarkVMBoot(b *testing.B) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		b.Fatal(err)
	}
	pool := govisor.NewPool(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := govisor.NewVM(pool, govisor.Config{
			Name: "boot", Mode: govisor.ModeHW, MemBytes: 4 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Boot(kernel); err != nil {
			b.Fatal(err)
		}
		vm.Release()
	}
}

// BenchmarkKernelAssembly measures the guest toolchain.
func BenchmarkKernelAssembly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := govisor.BuildKernel(); err != nil {
			b.Fatal(err)
		}
	}
}
