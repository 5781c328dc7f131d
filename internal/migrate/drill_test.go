package migrate

import (
	"fmt"
	"slices"
	"testing"

	"govisor/internal/core"
	"govisor/internal/faultnet"
	"govisor/internal/guest"
	"govisor/internal/mem"
)

// drillResult is one drained fleet's deterministic outcome.
type drillResult struct {
	p50, p99                 uint64 // downtime percentiles, cycles
	retries, resumes, faults uint64
	sent                     uint64 // logical bytes
}

// drainFleet evacuates six VMs with staggered dirty footprints one by one
// to fresh destinations over real wire connections (net.Pipe), clean or
// under the seeded faultnet schedule (seeds 42+i). Every migration must
// complete with the destination byte-identical to the paused source, and
// the evacuated VM must keep running on its new host.
func drainFleet(t *testing.T, faulted bool) drillResult {
	t.Helper()
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	var r drillResult
	var downtimes []uint64
	for i := 0; i < 6; i++ {
		pool := mem.NewPool(frames)
		src, err := core.NewVM(pool, core.Config{Name: fmt.Sprintf("evac-src-%d", i), Mode: core.ModeHW, MemBytes: vmRAM})
		if err != nil {
			t.Fatal(err)
		}
		// Staggered dirty footprints spread the per-VM downtimes, so the
		// percentiles summarize a real distribution.
		guest.Dirty(0, 8+uint64(i)*24, 2000).Apply(src)
		if err := src.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		src.Step(400_000)
		if src.State != core.StateRunning {
			t.Fatalf("source %d ended %v (%v)", i, src.State, src.Err)
		}
		dst, err := core.NewVM(pool, core.Config{Name: fmt.Sprintf("evac-dst-%d", i), Mode: core.ModeHW, MemBytes: vmRAM})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultStreamOptions()
		opt.MaxAttempts = 10
		var inj *faultnet.Injector
		if faulted {
			inj = faultnet.NewInjector(faultnet.Plan{Seed: 42 + int64(i), MeanGapBytes: 45_000, MaxFaults: 2})
			opt.Wire = PipeWire(inj.Wrap)
			opt.DelayCycles = inj.TakeDelayCycles
		}
		rep, err := StreamMigrate(src, dst, opt)
		if err != nil {
			t.Fatalf("evacuating VM %d: %v", i, err)
		}
		ss, ds := snapVM(src), snapVM(dst)
		ss.arch.Cycles += rep.DowntimeCycles
		if ss != ds {
			t.Fatalf("VM %d: destination differs from the paused source (+downtime)", i)
		}
		downtimes = append(downtimes, rep.DowntimeCycles)
		r.retries += rep.Retries
		r.resumes += rep.Resumes
		r.sent += rep.BytesSent
		if inj != nil {
			r.faults += inj.Stats().Total()
		}
		dst.Step(200_000 / raceScale)
		if dst.State != core.StateRunning {
			t.Fatalf("destination %d ended %v (%v)", i, dst.State, dst.Err)
		}
	}
	r.p50, r.p99 = percentile(downtimes, 50), percentile(downtimes, 99)
	return r
}

// percentile returns the nearest-rank p-th percentile of values.
func percentile(values []uint64, p int) uint64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return s[max((p*len(s)+99)/100, 1)-1]
}

// TestEvacuationDrill drains a host of six VMs clean and under seeded
// faults. Pre-copy runs entirely under the source's failure rule and the
// simulated clock, so every figure is exact, and a change to the retry
// rule, the resume path or the cost model moves them. The shape: the
// faults leave the median downtime alone and show only in the tail, where
// each retried brown-out pays its backoff; every injected fault costs one
// retry and one resume, and the re-sent rounds cost a few percent of the
// bytes.
func TestEvacuationDrill(t *testing.T) {
	for _, tc := range []struct {
		faulted bool
		want    drillResult
	}{
		{false, drillResult{p50: 66_599, p99: 83_044, sent: 1_544_032}},
		{true, drillResult{p50: 66_599, p99: 683_044, retries: 5, resumes: 5, faults: 5, sent: 1_593_376}},
	} {
		if got := drainFleet(t, tc.faulted); got != tc.want {
			t.Errorf("faulted=%v drain: got %+v, want %+v", tc.faulted, got, tc.want)
		}
	}
}
