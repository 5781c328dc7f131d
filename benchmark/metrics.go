package main

import (
	"sort"
	"strings"
)

// metricDef is one catalogue entry. BENCHMARK.json repeats the catalogue
// (bench_test.go checks the two agree); README.md explains it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	// on lists the workloads the metric is measured on: "all", "serial"
	// (compute, memory, exits), "parallel" (dataplane, fleet) or names.
	on string
	// exact metrics are simulated outputs or counts read from public Stats:
	// they repeat exactly and compare for equality.
	exact bool
}

func (m metricDef) appliesTo(workload string) bool {
	switch m.on {
	case "all":
		return true
	case "serial":
		_, ok := serialWorkloads[workload]
		return ok
	case "parallel":
		_, ok := serialWorkloads[workload]
		return !ok
	}
	for _, w := range strings.Split(m.on, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the metrics a user of the simulator sees; host time unless
// named simulated. alloc_mib repeats within 0.5 % across runs and seeds and
// carries the issue's 2 %. The time bounds are wider than the issue's 5 %:
// the driver refuses a benchmark whose spread over ten runs exceeds the
// bound, and four such sets of one commit on the reference box spread up to
// 17 % on wall_s as the host changes speed (see README.md). compare reports
// anything noisier than its bound as unresolved.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: "all"},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.20, on: "all"},
	{name: "guest_mips", unit: "Minstr/s", better: "higher", bound: 0.20, on: "all"},
	{name: "alloc_mib", unit: "MiB", better: "lower", bound: 0.02, on: "all"},
}

// suiteOnly are end-to-end results the suite reports and compare gates, but
// the driver contract cannot carry as end_to_end metrics (those are reported
// on every workload, are never 0 and are judged by their spread across
// seeds): frames_per_s does not exist on the serial workloads, sim_cycles
// must not move at all, and ops_failed_share is 0 on every good run.
var suiteOnly = []metricDef{
	{name: "frames_per_s", unit: "1/s", better: "higher", bound: 0.20, on: "parallel"},
	{name: "sim_cycles", unit: "cycles", better: "lower", on: "all", exact: true},
	{name: "ops_failed_share", unit: "ratio", better: "lower", on: "all", exact: true},
}

func t(name, unit, better, on string) metricDef {
	return metricDef{name: name, unit: unit, better: better, on: on}
}

func c(name, better, on string) metricDef {
	return metricDef{name: name, unit: "count", better: better, on: on, exact: true}
}

// perLayer: layer = package name. T = timed from outside in the traced
// pass, C = exact count from public Stats, M = micro-driver on prepared
// state. They carry no bound.
var perLayer = []metricDef{
	// vcpu → guest_mips@compute; no move expected on exits, dataplane.
	t("vcpu.alu_ns_per_instr", "ns/instr", "lower", "compute"),
	t("vcpu.xpage_alu_ns_per_instr", "ns/instr", "lower", "compute"),
	t("vcpu.xpage_loop_ns_per_instr", "ns/instr", "lower", "compute"),
	t("vcpu.kernel_loop_ns_per_instr", "ns/instr", "lower", "compute"),
	{name: "vcpu.icache_hit_ratio", unit: "ratio", better: "higher", on: "all", exact: true},
	{name: "vcpu.chain_hit_ratio", unit: "ratio", better: "higher", on: "all", exact: true},
	c("vcpu.predecodes", "lower", "all"),
	c("vcpu.trace_formations", "lower", "all"),
	c("vcpu.trace_entries", "higher", "all"),
	c("vcpu.trace_demotions", "lower", "all"),
	c("vcpu.crossings", "higher", "all"),
	// isa → setup_s, predecode-heavy phases of exits.
	t("isa.decode_ns_per_op", "ns/op", "lower", "compute"),
	// mmu → guest_mips@memory; shadow/PT counts also exits.
	t("mmu.translate_hit_ns_per_op", "ns/op", "lower", "memory"),
	t("mmu.translate_miss_direct_ns_per_op", "ns/op", "lower", "memory"),
	t("mmu.translate_miss_shadow_ns_per_op", "ns/op", "lower", "memory"),
	t("mmu.translate_miss_nested_ns_per_op", "ns/op", "lower", "memory"),
	t("mmu.translate_write_ns_per_op", "ns/op", "lower", "memory"),
	c("mmu.translations", "lower", "all"),
	c("mmu.walks", "lower", "all"),
	c("mmu.walk_refs", "lower", "all"),
	c("mmu.nested_refs", "lower", "all"),
	c("mmu.shadow_fills", "lower", "all"),
	c("mmu.pt_write_traps", "lower", "all"),
	// tlb → guest_mips@memory.
	t("tlb.lookup_ns_per_op", "ns/op", "lower", "memory"),
	t("tlb.insert_ns_per_op", "ns/op", "lower", "memory"),
	// The dataplane guests run with paging off: no TLB lookups, no ratio.
	{name: "tlb.hit_ratio", unit: "ratio", better: "higher", on: "compute,memory,exits,fleet", exact: true},
	c("tlb.flushes", "lower", "all"),
	c("tlb.evictions", "lower", "all"),
	// mem: stores/touch → guest_mips@memory; span → frames_per_s@dataplane.
	t("mem.read_ns_per_op", "ns/op", "lower", "memory"),
	t("mem.write_ns_per_op", "ns/op", "lower", "memory"),
	t("mem.pool_alloc_ns_per_op", "ns/op", "lower", "memory"),
	t("mem.read_span_mib_per_s", "MiB/s", "higher", "dataplane"),
	t("mem.write_span_mib_per_s", "MiB/s", "higher", "dataplane"),
	t("mem.store_ns_per_instr", "ns/instr", "lower", "memory"),
	t("mem.copy_ns_per_instr", "ns/instr", "lower", "memory"),
	t("mem.mixed_ns_per_instr", "ns/instr", "lower", "memory"),
	t("mem.touch_read_ns_per_instr", "ns/instr", "lower", "memory"),
	t("mem.touch_write_ns_per_instr", "ns/instr", "lower", "memory"),
	c("mem.wmemo_hits", "higher", "all"),
	c("mem.wmemo_fills", "lower", "all"),
	c("mem.demand_fills", "lower", "all"),
	c("mem.cow_breaks", "lower", "all"),
	c("mem.dirty_sets", "lower", "all"),
	// core → wall_s@exits; mmio_exits also dataplane.
	t("core.csr_ns_per_op", "ns/op", "lower", "exits"),
	t("core.syscall_ns_per_op", "ns/op", "lower", "exits"),
	t("core.ptchurn_trap_ns_per_op", "ns/op", "lower", "exits"),
	t("core.ptchurn_para_ns_per_op", "ns/op", "lower", "exits"),
	t("core.priv_hw_ns_per_op", "ns/op", "lower", "exits"),
	t("core.ns_per_exit", "ns/exit", "lower", "exits"),
	c("core.exits", "lower", "all"),
	c("core.exits_priv", "lower", "all"),
	c("core.exits_ecall", "lower", "all"),
	c("core.exits_shadow_miss", "lower", "all"),
	c("core.exits_host_fault", "lower", "all"),
	c("core.exits_guest_trap", "lower", "all"),
	c("core.injections", "lower", "all"),
	c("core.hypercalls", "lower", "all"),
	c("core.para_maps", "lower", "all"),
	c("core.mmio_exits", "lower", "all"),
	// parallel (core/parallel.go) → wall_s@fleet, dataplane.
	t("parallel.lease_s", "s", "lower", "parallel"),
	t("parallel.exec_s", "s", "lower", "parallel"),
	t("parallel.barrier_s", "s", "lower", "parallel"),
	t("parallel.epochfn_s", "s", "lower", "parallel"),
	t("parallel.epoch_p50_us", "us", "lower", "parallel"),
	t("parallel.epoch_p90_us", "us", "lower", "parallel"),
	t("parallel.speedup_w2", "ratio", "higher", "parallel"),
	c("parallel.epochs", "lower", "parallel"),
	// sched → wall_s@fleet.
	t("sched.busy_s", "s", "lower", "parallel"),
	c("sched.calls", "lower", "parallel"),
	t("sched.rr_next_ns_per_op_8", "ns/op", "lower", "fleet"),
	t("sched.rr_next_ns_per_op_256", "ns/op", "lower", "fleet"),
	t("sched.credit_next_ns_per_op_8", "ns/op", "lower", "fleet"),
	t("sched.credit_next_ns_per_op_256", "ns/op", "lower", "fleet"),
	t("sched.cfs_next_ns_per_op_8", "ns/op", "lower", "fleet"),
	t("sched.cfs_next_ns_per_op_256", "ns/op", "lower", "fleet"),
	// virtio → frames_per_s@dataplane.
	t("virtio.rx_replenish_s", "s", "lower", "parallel"),
	t("virtio.net_chain_ns_per_op", "ns/op", "lower", "dataplane"),
	t("virtio.blk_chain_ns_per_op", "ns/op", "lower", "dataplane"),
	c("virtio.kicks", "lower", "parallel"),
	c("virtio.chains", "lower", "parallel"),
	c("virtio.malformed", "lower", "parallel"),
	c("virtio.tx_frames", "higher", "parallel"),
	c("virtio.rx_frames", "higher", "parallel"),
	c("virtio.rx_dropped", "lower", "parallel"),
	// vnet → frames_per_s and alloc_mib@dataplane.
	t("vnet.frames_per_s", "1/s", "higher", "parallel"),
	t("vnet.flush_s", "s", "lower", "parallel"),
	t("vnet.send_flush_ns_per_frame", "ns/frame", "lower", "dataplane"),
	t("vnet.alloc_bytes_per_frame", "B/frame", "lower", "dataplane"),
	c("vnet.forwarded", "higher", "parallel"),
	c("vnet.flooded", "lower", "parallel"),
	c("vnet.dropped", "lower", "parallel"),
	// storage → wall_s@dataplane (small).
	t("storage.busy_s", "s", "lower", "parallel"),
	c("storage.sector_ops", "lower", "parallel"),
	// migrate → wall_s@fleet.
	t("migrate.stream_s", "s", "lower", "fleet"),
	t("migrate.page_mib_per_s", "MiB/s", "higher", "fleet"),
	c("migrate.wire_bytes", "lower", "fleet"),
	c("migrate.rounds", "lower", "fleet"),
	{name: "migrate.downtime_cycles", unit: "cycles", better: "lower", on: "fleet", exact: true},
	// ksm / snapshot → wall_s@fleet.
	t("ksm.scan_s", "s", "lower", "fleet"),
	t("ksm.scan_ns_per_page", "ns/page", "lower", "fleet"),
	c("ksm.pages_scanned", "lower", "fleet"),
	c("ksm.pages_merged", "higher", "fleet"),
	t("snapshot.save_mib_per_s", "MiB/s", "higher", "fleet"),
	t("snapshot.restore_mib_per_s", "MiB/s", "higher", "fleet"),
	// runtime → alloc_mib everywhere; wall_s@dataplane, exits.
	t("runtime.gc_cycles", "count", "lower", "all"),
	t("runtime.gc_pause_ms", "ms", "lower", "all"),
	t("runtime.alloc_bytes_per_kinstr", "B/kinstr", "lower", "all"),
	t("runtime.peak_rss_mib", "MiB", "lower", "all"),
	// Profile fold of the traced pass: leaf-frame CPU samples by package.
	// The shares sum to 1.
	t("vcpu.cpu_share", "ratio", "lower", "all"),
	t("isa.cpu_share", "ratio", "lower", "all"),
	t("mmu.cpu_share", "ratio", "lower", "all"),
	t("tlb.cpu_share", "ratio", "lower", "all"),
	t("mem.cpu_share", "ratio", "lower", "all"),
	t("core.cpu_share", "ratio", "lower", "all"),
	t("virtio.cpu_share", "ratio", "lower", "all"),
	t("vnet.cpu_share", "ratio", "lower", "all"),
	t("sched.cpu_share", "ratio", "lower", "all"),
	t("migrate.cpu_share", "ratio", "lower", "all"),
	t("runtime.cpu_share", "ratio", "lower", "all"),
	t("other.cpu_share", "ratio", "lower", "all"),
	// The tracing itself.
	t("trace.overhead_ratio", "ratio", "lower", "all"),
	t("trace.self_sum_ratio", "ratio", "higher", "all"),
	// Simulated totals: exact, and a host-side change must not move them.
	{name: "sim.cycles", unit: "cycles", better: "lower", on: "all", exact: true},
	{name: "sim.instret", unit: "count", better: "lower", on: "all", exact: true},
}

// profileLayers are the packages the CPU-profile fold reports on their own;
// everything else is "other".
var profileLayers = []string{"vcpu", "isa", "mmu", "tlb", "mem", "core", "virtio", "vnet", "sched", "migrate", "runtime"}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
