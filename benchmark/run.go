package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"time"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/vcpu"
	"govisor/internal/virtio"
)

// unitResult is one fixed piece of work — one guest fleet or one sequence of
// serial phases built, run to completion and checked.
//
// An operation is one guest run to Halt(0), one migration, or one digest
// check; attempted and failed count them.
type unitResult struct {
	setupS     float64 // build images, create VMs/host/switch/rings, boot
	wallS      float64 // measured region only
	instret    uint64  // Σ guest instructions retired in the region
	cycles     uint64  // Σ guest cycles (simulated)
	allocBytes uint64  // runtime.MemStats.TotalAlloc delta over the region
	gcCycles   uint32
	gcPauseNs  uint64
	frames     uint64 // switch forwards
	digest     uint64
	attempted  int
	failures   []string

	counts  map[string]float64 // C metrics: exact counts read from public Stats
	phaseNs map[string]float64 // T metrics of serial phases (per-phase metric name)
	tracer  *epochTracer       // fleet units traced with a recorder
}

func (u *unitResult) fail(format string, args ...any) {
	u.failures = append(u.failures, fmt.Sprintf(format, args...))
}

// region brackets the measured region: wall clock, allocation and GC deltas
// and, in the traced pass, the CPU profile and the root span.
type region struct {
	m0  runtime.MemStats
	t0  time.Time
	rec *recorder
}

func startRegion(rec *recorder) *region {
	r := &region{rec: rec}
	runtime.ReadMemStats(&r.m0)
	if rec != nil {
		// Profiling errors only when a profile is already running, which
		// the harness never does; the fold then sees no samples.
		_ = pprof.StartCPUProfile(&rec.profile)
		rec.runStart = rec.now()
	}
	r.t0 = time.Now()
	return r
}

func (r *region) stop(u *unitResult) {
	u.wallS = time.Since(r.t0).Seconds()
	if r.rec != nil {
		r.rec.runEnd = r.rec.now()
		pprof.StopCPUProfile()
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	u.allocBytes = m1.TotalAlloc - r.m0.TotalAlloc
	u.gcCycles = m1.NumGC - r.m0.NumGC
	u.gcPauseNs = m1.PauseTotalNs - r.m0.PauseTotalNs
}

// fleetBuilders builds the RunParallel workloads.
var fleetBuilders = map[string]func(params, *recorder) (*fleet, error){
	"dataplane": buildDataplane, "fleet": buildFleet,
}

// prepared is a unit that has been set up — images built, VMs created and
// booted, rings armed — and can be run once.
type prepared struct {
	setupS float64
	run    func(workers int) *unitResult
}

// prepare sets one unit of a workload up, timing the set-up after a forced
// GC. A non-nil recorder selects the traced drive.
func prepare(workload string, p params, rec *recorder) (*prepared, error) {
	phases, serial := serialWorkloads[workload]
	build := fleetBuilders[workload]
	if !serial && build == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	runtime.GC()
	t0 := time.Now()
	var run func(int) *unitResult
	if serial {
		kernel, err := guest.BuildKernel()
		if err != nil {
			return nil, err
		}
		vms := make([]*core.VM, len(phases))
		iters := make([]uint64, len(phases))
		for i, ph := range phases {
			if vms[i], iters[i], err = bootPhase(ph, p, kernel); err != nil {
				return nil, err
			}
		}
		run = func(int) *unitResult { return runSerial(phases, vms, iters, rec) }
	} else {
		f, err := build(p, rec)
		if err != nil {
			return nil, err
		}
		run = func(workers int) *unitResult { return runFleet(f, workers, rec) }
	}
	return &prepared{setupS: time.Since(t0).Seconds(), run: run}, nil
}

// runUnit sets up, runs and checks one unit. workers applies to the
// RunParallel workloads.
func runUnit(workload string, p params, workers int, rec *recorder) (*unitResult, error) {
	pr, err := prepare(workload, p, rec)
	if err != nil {
		return nil, err
	}
	u := pr.run(workers)
	u.setupS = pr.setupS
	return u, nil
}

func runSerial(phases []phaseSpec, vms []*core.VM, iters []uint64, rec *recorder) *unitResult {
	u := &unitResult{counts: map[string]float64{}, phaseNs: map[string]float64{}}
	walls := make([]time.Duration, len(phases))
	reg := startRegion(rec)
	for i, vm := range vms {
		t := time.Now()
		if rec != nil {
			tracedRunToHalt(vm, rec, phases[i].name)
		} else {
			vm.RunToHalt(runBudget)
		}
		walls[i] = time.Since(t)
	}
	reg.stop(u)

	h := fnv.New64a()
	for i, vm := range vms {
		u.checkHalted(vm)
		u.addVM(vm)
		hashVM(h, vm)
		ops := vm.CPU.Instret
		if phases[i].perOp != 0 {
			ops = iters[i] * phases[i].perOp
		}
		u.phaseNs[phases[i].metric] = float64(walls[i].Nanoseconds()) / float64(ops)
	}
	u.digest = h.Sum64()
	return u
}

func runFleet(f *fleet, workers int, rec *recorder) *unitResult {
	u := &unitResult{counts: map[string]float64{}, tracer: f.tracer}
	var instret0, cycles0 uint64
	for _, vm := range f.host.VMs {
		instret0 += vm.CPU.Instret
		cycles0 += vm.CPU.Cycles
	}

	reg := startRegion(rec)
	if f.tracer != nil {
		f.tracer.epochStart = rec.now()
	}
	f.host.RunParallel(workers, runBudget)
	reg.stop(u)

	h := fnv.New64a()
	for _, vm := range f.host.VMs {
		u.checkHalted(vm)
		u.addVM(vm)
		hashVM(h, vm)
	}
	u.instret -= instret0
	u.cycles -= cycles0
	f.check(u, h)
	u.digest = h.Sum64()
	return u
}

// checkHalted counts one guest run: it must end in Halt(0).
func (u *unitResult) checkHalted(vm *core.VM) {
	u.attempted++
	if vm.State != core.StateHalted || vm.HaltCode != 0 {
		u.fail("%s: ended %v halt %#x err %v", vm.Name, vm.State, vm.HaltCode, vm.Err)
	}
}

// check applies the fleet-level correctness rules, folds the fleet's
// simulated outputs into the digest and reads its counters.
func (f *fleet) check(u *unitResult, h hasher) {
	fwd, flooded, dropped := f.sw.Stats()
	var sent uint64
	queues := []*virtio.Queue{f.blkDev.Queue(0)}
	for _, n := range f.nets {
		sent += n.frames
		queues = append(queues, n.dev.Queue(virtio.NetRXQueue), n.dev.Queue(virtio.NetTXQueue))
		u.counts["virtio.tx_frames"] += float64(n.net.TxFrames)
		u.counts["virtio.rx_frames"] += float64(n.net.RxFrames)
		u.counts["virtio.rx_dropped"] += float64(n.net.RxDropped)
	}
	for _, q := range queues {
		u.counts["virtio.kicks"] += float64(q.Kicks)
		u.counts["virtio.chains"] += float64(q.Chains)
		u.counts["virtio.malformed"] += float64(q.Malformed)
	}
	if fwd != sent || flooded != 0 || dropped != 0 {
		u.fail("switch forwarded %d of %d frames, flooded %d, dropped %d", fwd, sent, flooded, dropped)
	}
	if got := u.counts["virtio.rx_frames"]; got != float64(sent) || u.counts["virtio.rx_dropped"] != 0 {
		u.fail("virtio-net received %.0f of %d frames, dropped %.0f", got, sent, u.counts["virtio.rx_dropped"])
	}
	u.frames = fwd
	u.counts["vnet.forwarded"] = float64(fwd)
	u.counts["vnet.flooded"] = float64(flooded)
	u.counts["vnet.dropped"] = float64(dropped)
	u.counts["storage.sector_ops"] = float64(f.img.ops)
	hashU64(h, f.host.Now, fwd, flooded, dropped, f.img.ops)

	if f.ksm != nil {
		u.counts["ksm.pages_scanned"] = float64(f.ksm.scanned)
		u.counts["ksm.pages_merged"] = float64(f.ksm.merged)
		hashU64(h, f.ksm.scanned, f.ksm.merged)
	}
	if m := f.mig; m != nil {
		u.attempted++
		switch {
		case !m.done:
			u.fail("migration never ran: fleet ended before epoch %d", m.epoch)
		case m.err != nil:
			u.fail("migration: %v", m.err)
		default:
			// A migrated destination must keep running.
			m.dst.Step(100_000)
			if m.dst.State != core.StateRunning {
				u.fail("migrated destination is %v (err %v)", m.dst.State, m.dst.Err)
			}
			hashVM(h, m.dst)
		}
		u.counts["migrate.wire_bytes"] = float64(m.wireBytes)
		u.counts["migrate.rounds"] = float64(len(m.rep.Rounds))
		u.counts["migrate.downtime_cycles"] = float64(m.rep.DowntimeCycles)
		u.counts["migrate.bytes_sent"] = float64(m.rep.BytesSent)
		hashU64(h, m.rep.BytesSent, uint64(len(m.rep.Rounds)), m.rep.DowntimeCycles)
	}
}

type hasher interface{ Write([]byte) (int, error) }

func hashU64(h hasher, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// hashVM folds one VM's simulated outcome into the digest: retired
// instructions, cycles, halt code and every byte of guest RAM. Runs outside
// the timed region.
func hashVM(h hasher, vm *core.VM) {
	hashU64(h, vm.CPU.Instret, vm.CPU.Cycles, uint64(vm.HaltCode))
	var page [isa.PageSize]byte
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		if vm.Mem.Frame(gfn) == mem.NoFrame {
			hashU64(h, gfn)
			continue
		}
		vm.Mem.ReadRaw(gfn, page[:])
		h.Write(page[:])
	}
}

// addVM accumulates one VM's exact counters into the unit's C metrics.
func (u *unitResult) addVM(vm *core.VM) {
	u.instret += vm.CPU.Instret
	u.cycles += vm.CPU.Cycles
	c := u.counts
	if ic := vm.CPU.ICache; ic != nil {
		s := ic.Stats
		c["vcpu.icache_hits"] += float64(s.Hits)
		c["vcpu.icache_lookups"] += float64(s.Hits + s.Misses + s.Invalidations)
		c["vcpu.chain_hits"] += float64(s.ChainHits)
		c["vcpu.chain_lookups"] += float64(s.ChainHits + s.ChainMisses)
		c["vcpu.predecodes"] += float64(s.Predecodes)
		c["vcpu.trace_formations"] += float64(s.TraceFormations)
		c["vcpu.trace_entries"] += float64(s.TraceEntries)
		c["vcpu.trace_demotions"] += float64(s.TraceDemotions)
		c["vcpu.crossings"] += float64(s.Crossings)
	}
	ms := vm.MMUCtx.Stats
	c["mmu.translations"] += float64(ms.Translations)
	c["mmu.walks"] += float64(ms.Walks)
	c["mmu.walk_refs"] += float64(ms.WalkRefs)
	c["mmu.nested_refs"] += float64(ms.NestedRefs)
	c["mmu.shadow_fills"] += float64(vm.Stats.ShadowFills)
	c["mmu.pt_write_traps"] += float64(vm.Stats.PTWriteEmuls)
	ts := vm.MMUCtx.TLB.Stats
	c["tlb.hits"] += float64(ts.Hits)
	c["tlb.lookups"] += float64(ts.Hits + ts.Misses)
	c["tlb.flushes"] += float64(ts.Flushes + ts.PageFlushes)
	c["tlb.evictions"] += float64(ts.Evictions)
	c["mem.wmemo_hits"] += float64(vm.Mem.WMemoHits)
	c["mem.wmemo_fills"] += float64(vm.Mem.WMemoFills)
	c["mem.demand_fills"] += float64(vm.Mem.DemandFills)
	c["mem.cow_breaks"] += float64(vm.Mem.COWBreaks)
	c["mem.dirty_sets"] += float64(vm.Mem.DirtySets)
	for reason, n := range vm.CPU.Stats.Exits {
		c["core.exits"] += float64(n)
		if name, ok := exitMetrics[vcpu.ExitReason(reason)]; ok {
			c[name] += float64(n)
		}
	}
	c["core.injections"] += float64(vm.Stats.Injections)
	c["core.hypercalls"] += float64(vm.Stats.Hypercalls)
	c["core.para_maps"] += float64(vm.Stats.ParaMaps)
	c["core.mmio_exits"] += float64(vm.Stats.MMIOExits)
}

// exitMetrics names the exit reasons reported on their own.
var exitMetrics = map[vcpu.ExitReason]string{
	vcpu.ExitPriv:       "core.exits_priv",
	vcpu.ExitEcall:      "core.exits_ecall",
	vcpu.ExitShadowMiss: "core.exits_shadow_miss",
	vcpu.ExitHostFault:  "core.exits_host_fault",
	vcpu.ExitGuestTrap:  "core.exits_guest_trap",
}
