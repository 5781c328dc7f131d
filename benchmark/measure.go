package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one invocation (one workload, one seed, tracing on or
// off) measures. The last line of its output is the driver's view of it;
// the suite reads all of it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Quick     bool                   `json:"quick"`
	Trace     bool                   `json:"trace"`
	Units     int                    `json:"units"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digest    string                 `json:"sim_digest"`
	SimCycles uint64                 `json:"sim_cycles"`
	Metrics   map[string]metricValue `json:"metrics"`
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the seed-1 sim_digest of every workload at full and quick
// size. A host-side change that moves one has changed a guest-visible byte
// or a simulated cycle.
type golden struct {
	Full  map[string]string `json:"full"`
	Quick map[string]string `json:"quick"`
}

func (g *golden) size(quick bool) map[string]string {
	if quick {
		return g.Quick
	}
	return g.Full
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// A run times extra set-ups beyond those of its units — set-up takes
// milliseconds or less, so its median needs the samples: at least
// minSetupReps, then more until setupBudget is spent or maxSetupReps reached.
const (
	minSetupReps = 24
	maxSetupReps = 200
	setupBudget  = time.Second
)

// run is the state of one invocation: its units and what they are reduced to.
type run struct {
	workload string
	p        params
	serial   bool
	res      *runResult

	plain, traced []*unitResult // untraced units at fleetWorkers; traced ones
	recs          []*recorder   // recs[i] recorded traced[i]
	w1            *unitResult   // RunParallel workloads: one unit at workers=1
	setups        []float64
}

// add folds one unit's operations into the result.
func (r *run) add(u *unitResult) {
	res := r.res
	res.Units++
	res.Attempted += u.attempted
	res.Failed += len(u.failures)
	res.Failures = append(res.Failures, u.failures...)
	r.setups = append(r.setups, u.setupS)
	fmt.Fprintf(os.Stderr, "%s unit %d: setup %.6f s, wall %.4f s, %d/%d operations failed\n",
		r.workload, res.Units, u.setupS, u.wallS, len(u.failures), u.attempted)
}

// check counts one operation that must hold.
func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// measure runs one workload for about seconds of wall clock and reduces the
// units to metrics. With trace off it reports the end-to-end metrics from
// untraced units; with trace on, untraced and traced units alternate and
// the traced ones (spans, CPU profile), the micro-drivers and the public
// Stats yield the per-layer metrics. outDir receives the trace file.
func measure(workload string, p params, seconds float64, trace bool, outDir string) (*runResult, error) {
	r := &run{workload: workload, p: p, res: &runResult{Workload: workload, Seed: p.seed, Quick: p.quick,
		Trace: trace, Metrics: map[string]metricValue{}}}
	_, r.serial = serialWorkloads[workload]

	start := time.Now()
	for len(r.plain) == 0 || time.Since(start).Seconds() < seconds {
		u, err := runUnit(workload, p, fleetWorkers, nil)
		if err != nil {
			return nil, err
		}
		r.add(u)
		r.plain = append(r.plain, u)
		if !trace {
			continue
		}
		rec := newRecorder()
		if u, err = runUnit(workload, p, fleetWorkers, rec); err != nil {
			return nil, err
		}
		r.add(u)
		r.traced = append(r.traced, u)
		r.recs = append(r.recs, rec)
	}

	// The law: no worker count, no repetition and no tracing may change a
	// guest-visible byte or a simulated cycle. Each check is one operation.
	first := r.plain[0]
	for i, u := range slices.Concat(r.plain[1:], r.traced) {
		r.check(u.digest == first.digest, "unit %d: sim_digest %016x, want %016x", i+2, u.digest, first.digest)
	}
	if !r.serial {
		var err error
		if r.w1, err = runUnit(workload, p, 1, nil); err != nil {
			return nil, err
		}
		r.add(r.w1)
		r.check(r.w1.digest == first.digest, "workers=1: sim_digest %016x, want %016x", r.w1.digest, first.digest)
	}
	r.res.Digest = fmt.Sprintf("%016x", first.digest)
	r.res.SimCycles = first.cycles
	if p.seed == 1 {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		want := g.size(p.quick)[workload]
		r.check(r.res.Digest == want, "golden: sim_digest %s, want %s", r.res.Digest, want)
	}

	reduce := r.endToEnd
	if trace {
		reduce = func() error { return r.perLayer(outDir) }
	}
	if err := reduce(); err != nil {
		return nil, err
	}
	return r.res, nil
}

// col maps the units to one value each.
func col(us []*unitResult, f func(*unitResult) float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u)
	}
	return out
}

func wallOf(u *unitResult) float64 { return u.wallS }

func framesPerS(u *unitResult) float64 { return float64(u.frames) / u.wallS }

// endToEnd reduces the untraced units to the end-to-end metrics: medians
// over units, and for set-up over extra set-ups too.
func (r *run) endToEnd() error {
	for i, t0 := 0, time.Now(); i < minSetupReps || (i < maxSetupReps && time.Since(t0) < setupBudget); i++ {
		pr, err := prepare(r.workload, r.p, nil)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, pr.setupS)
	}
	values := map[string]float64{
		"setup_s":    median(r.setups),
		"wall_s":     median(col(r.plain, wallOf)),
		"guest_mips": median(col(r.plain, func(u *unitResult) float64 { return float64(u.instret) / u.wallS / 1e6 })),
		"alloc_mib":  median(col(r.plain, func(u *unitResult) float64 { return float64(u.allocBytes) / (1 << 20) })),
	}
	for _, m := range endToEnd {
		r.res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	if !r.serial {
		// Not a driver metric (undefined on serial workloads); the suite
		// reports it end to end.
		r.res.Metrics["frames_per_s"] = metricValue{median(col(r.plain, framesPerS)), "1/s"}
	}
	return nil
}

// perOrZero is num/den, or 0 when the work counted by den never ran — the
// run has then recorded that as a failed operation, and an Inf or NaN here
// would lose it by failing the JSON encoding.
func perOrZero(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// schedCalls are the span names of the decorated scheduler's methods.
var schedCalls = []string{"sched.next", "sched.begin_lease", "sched.account", "sched.end_lease", "sched.block", "sched.unblock"}

// perLayer reduces the traced pass to the per-layer metrics and writes the
// trace file. A metric of a layer the workload does not exercise is absent
// (the driver's view reads it as 0).
func (r *run) perLayer(outDir string) error {
	first, last := r.plain[0], r.traced[len(r.traced)-1]
	lastRec := r.recs[len(r.recs)-1]
	plainWall := median(col(r.plain, wallOf))
	tracedWall := median(col(r.traced, wallOf))

	// C: exact counts, read from an untraced unit — the traced serial drive
	// loop adds a quantum exit per slice.
	out := map[string]float64{}
	for k, v := range first.counts {
		out[k] = v
	}
	ratio := func(name, hits, lookups string) {
		if out[lookups] > 0 {
			out[name] = out[hits] / out[lookups]
		}
		delete(out, hits)
		delete(out, lookups)
	}
	ratio("vcpu.icache_hit_ratio", "vcpu.icache_hits", "vcpu.icache_lookups")
	ratio("vcpu.chain_hit_ratio", "vcpu.chain_hits", "vcpu.chain_lookups")
	ratio("tlb.hit_ratio", "tlb.hits", "tlb.lookups")
	delete(out, "migrate.bytes_sent")
	out["sim.cycles"] = float64(first.cycles)
	out["sim.instret"] = float64(first.instret)

	// T: serial phases, timed by the traced drive loop.
	for name := range last.phaseNs {
		out[name] = median(col(r.traced, func(u *unitResult) float64 { return u.phaseNs[name] }))
	}
	if r.workload == "exits" {
		out["core.ns_per_exit"] = tracedWall * 1e9 / first.counts["core.exits"]
	}
	out["trace.overhead_ratio"] = tracedWall / plainWall

	// T: span self times per name, median over the traced units.
	selfs := make([]map[string]float64, len(r.recs))
	sums := make([]float64, len(r.recs))
	for i, rec := range r.recs {
		selfs[i] = rec.selfTimes()
		for _, v := range selfs[i] {
			sums[i] += v
		}
		sums[i] /= float64(rec.runEnd-rec.runStart) / 1e9
	}
	self := func(names ...string) float64 {
		vals := make([]float64, len(selfs))
		for i, st := range selfs {
			for _, n := range names {
				vals[i] += st[n]
			}
		}
		return median(vals)
	}
	out["trace.self_sum_ratio"] = median(sums)
	r.check(math.Abs(median(sums)-1) <= 0.02,
		"span self times sum to %.4f of the traced wall clock, want within 2%%", median(sums))
	if !r.serial {
		out["parallel.lease_s"] = self("parallel.lease")
		out["parallel.exec_s"] = self("parallel.exec")
		out["parallel.barrier_s"] = self("parallel.barrier")
		out["parallel.epochfn_s"] = self("epochfn", "trace.bookkeeping")
		out["vnet.flush_s"] = self("vnet.flush")
		out["sched.busy_s"] = self(schedCalls...)
		out["virtio.rx_replenish_s"] = self("virtio.rx_replenish")
		out["storage.busy_s"] = self("storage.read", "storage.write")
		for _, n := range schedCalls {
			out["sched.calls"] += float64(lastRec.count(n))
		}
		out["parallel.epochs"] = float64(last.tracer.epoch)
		out["parallel.epoch_p50_us"] = median(col(r.traced, func(u *unitResult) float64 { return u.tracer.epochPercentileUs(0.5) }))
		out["parallel.epoch_p90_us"] = median(col(r.traced, func(u *unitResult) float64 { return u.tracer.epochPercentileUs(0.9) }))
		out["parallel.speedup_w2"] = r.w1.wallS / plainWall
		out["vnet.frames_per_s"] = median(col(r.plain, framesPerS))
	}
	if r.workload == "fleet" {
		out["migrate.stream_s"] = self("migrate.stream")
		out["migrate.page_mib_per_s"] = perOrZero(first.counts["migrate.bytes_sent"]/(1<<20), out["migrate.stream_s"])
		out["ksm.scan_s"] = self("ksm.scan")
		out["ksm.scan_ns_per_page"] = perOrZero(out["ksm.scan_s"]*1e9, first.counts["ksm.pages_scanned"])
	}

	// Profile fold, each traced unit weighted by its sample count.
	samples := 0
	for _, rec := range r.recs {
		shares, n, err := foldProfile(rec.profile.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		n = max(n, 1)
		for l, v := range shares {
			out[l+".cpu_share"] += v * float64(n)
		}
		samples += n
	}
	for _, l := range slices.Concat([]string{"other"}, profileLayers) {
		out[l+".cpu_share"] /= float64(samples)
	}

	// Go runtime: tracing off, so taken from the untraced units.
	out["runtime.gc_cycles"] = median(col(r.plain, func(u *unitResult) float64 { return float64(u.gcCycles) }))
	out["runtime.gc_pause_ms"] = median(col(r.plain, func(u *unitResult) float64 { return float64(u.gcPauseNs) / 1e6 }))
	out["runtime.alloc_bytes_per_kinstr"] = median(col(r.plain, func(u *unitResult) float64 {
		return float64(u.allocBytes) / float64(u.instret) * 1000
	}))

	// M: micro-drivers of the layers this workload explains.
	if micro := microDrivers[r.workload]; micro != nil {
		if err := micro(r.p, out); err != nil {
			return err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out["runtime.peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	if err := lastRec.writeTrace(filepath.Join(outDir, "trace_"+r.workload+".json"), r.workload, r.p.seed); err != nil {
		return err
	}
	for _, m := range perLayer {
		if v, ok := out[m.name]; ok {
			r.res.Metrics[m.name] = metricValue{v, m.unit}
			delete(out, m.name)
		}
	}
	for name := range out {
		return fmt.Errorf("internal: metric %q is measured but not in the catalogue", name)
	}
	return nil
}
