package bench

import "govisor/internal/metrics"

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID    string // table/figure number in EXPERIMENTS.md
	Name  string
	Run   func() (*metrics.Table, error)
	Notes string // the expected shape, stated up front
}

// All lists every reproduced experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Privileged-operation microbenchmarks", T1PrivilegedOps,
			"trap&emulate ≫ para > hw-assist ≈ native for privileged ops"},
		{"T2", "VM-exit cost breakdown", T2ExitLatency,
			"the fixed world-switch cost dominates every exit"},
		{"F3", "Slowdown vs privileged-op density", F3PrivDensity,
			"all modes ≈ native at zero density; trap&emulate degrades steepest"},
		{"F4", "Working-set sweep: shadow vs nested paging", F4WorkingSet,
			"beyond TLB reach, nested pays 2-D walks and trails shadow"},
		{"F5", "Page-table churn across modes", F5PTChurn,
			"shadow worst (write-protect traps), para recovers via hypercalls, nested best"},
		{"T6", "I/O paths: emulated vs virtio", T6IOPath,
			"virtio collapses exits/op and wins ≥5× on cycles"},
		{"F7", "Live migration: downtime vs dirty rate", F7Migration,
			"pre-copy downtime grows with dirty rate; post-copy stays flat"},
		{"F8", "Pre-copy convergence rounds", F8PrecopyRounds,
			"geometric decay below link rate; plateau above it"},
		{"F9", "Content-based page sharing", F9Dedup,
			"savings scale with identical-VM count; scan cost linear in pages"},
		{"T10", "Ballooning under overcommit", T10Balloon,
			"mild slowdown until working sets stop fitting, then a cliff"},
		{"F11", "Scheduler fairness and wakeup latency", F11SchedFairness,
			"credit/cfs near-1.0 Jain; boost keeps latency VM responsive"},
		{"T12", "Weight and cap enforcement", T12WeightCap,
			"measured shares track configured weights within a few percent"},
		{"T13", "Consolidation scaling", T13Consolidation,
			"near-linear to the core count, then proportional sharing"},
		{"T14", "Provisioning: snapshot vs COW clone", T14Provision,
			"snapshot cost scales with footprint; clones are O(1)"},
		{"F15", "COW image chain depth", F15COWDepth,
			"reads fall through deeper chains; first-writes pay one copy-up"},
		{"A1", "Ablation: paravirtual MMU batching", A1ParaBatching,
			"multicall batching amortizes the hypercall round trip"},
		{"A2", "Ablation: TLB ASID tagging", A2ASIDFlush,
			"flush-on-switch costs extra misses after every world switch"},
		{"A3", "Ablation: pre-copy round bound", A3PrecopyBounds,
			"more rounds trade total time for downtime until convergence stalls"},
		{"A4", "Ablation: virtio queue depth", A4QueueDepth,
			"deeper batches amortize the doorbell exit until it stops mattering"},
	}
}
