package main

import (
	"fmt"
	"math"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// workloadNames lists the five workloads in the order the suite interleaves
// them. The "why" sentences live in README.md and BENCHMARK.json.
var workloadNames = []string{"compute", "memory", "exits", "dataplane", "fleet"}

// serialWorkloads maps a serial workload to its phases; dataplane and fleet
// are built in fleet.go.
var serialWorkloads = map[string][]phaseSpec{
	// vcpu does nearly all the work: icache → dispatch → superblocks →
	// chain → traces. No exits, no devices, almost no mmu/mem.
	"compute": {
		{name: "alu", mode: core.ModeHW, stream: guest.StreamALU, unroll: 512, size: 300_000,
			metric: "vcpu.alu_ns_per_instr"},
		{name: "xpage_alu", mode: core.ModeHW, stream: guest.StreamXPageALU, unroll: 2200, size: 120_000,
			metric: "vcpu.xpage_alu_ns_per_instr"},
		{name: "xpage_loop", mode: core.ModeHW, stream: guest.StreamXPageLoop, unroll: 12, size: 12_000_000,
			metric: "vcpu.xpage_loop_ns_per_instr"},
		{name: "kernel_loop", mode: core.ModeNative, size: 12_000_000,
			kernel: func(n uint64) guest.Workload { return guest.Compute(n, 0) },
			metric: "vcpu.kernel_loop_ns_per_instr"},
	},
	// The six memos, the TLB and the walkers carry the run: 1024 touched
	// pages are four times the 256-entry TLB reach, and stores run beside
	// loads so a read-side gain that costs the store path shows.
	"memory": {
		{name: "store", mode: core.ModeHW, stream: guest.StreamStore, unroll: 512, size: 150_000,
			metric: "mem.store_ns_per_instr"},
		{name: "copy", mode: core.ModeHW, stream: guest.StreamCopy, unroll: 512, size: 75_000,
			metric: "mem.copy_ns_per_instr"},
		{name: "mixed", mode: core.ModeTrap, stream: guest.StreamMixed, unroll: 512, size: 75_000,
			metric: "mem.mixed_ns_per_instr"},
		{name: "touch_read", mode: core.ModeHW, size: 1500,
			kernel: func(n uint64) guest.Workload { return guest.MemTouch(n, touchPages, 0) },
			metric: "mem.touch_read_ns_per_instr"},
		{name: "touch_write", mode: core.ModeTrap, size: 1500,
			kernel: func(n uint64) guest.Workload { return guest.MemTouch(n, touchPages, 50) },
			metric: "mem.touch_write_ns_per_instr"},
	},
	// An exit every 2–3 instructions: the pace is set by leaving and
	// re-entering CPU.Run, core.handleExit, privileged emulation, injection
	// and the shadow engine — block and trace execution never gets going.
	"exits": {
		{name: "csr", mode: core.ModeTrap, size: 3_800_000, perOp: 1,
			kernel: guest.CSRLoop, metric: "core.csr_ns_per_op"},
		{name: "syscall", mode: core.ModeTrap, size: 1_900_000, perOp: 1,
			kernel: guest.Syscall, metric: "core.syscall_ns_per_op"},
		{name: "ptchurn_trap", mode: core.ModeTrap, size: 1440, perOp: 2 * core.ChurnWindowPages,
			kernel: func(n uint64) guest.Workload { return guest.PTChurn(n, false) },
			metric: "core.ptchurn_trap_ns_per_op"},
		{name: "ptchurn_para", mode: core.ModePara, size: 2880, perOp: 2 * core.ChurnWindowPages,
			kernel: func(n uint64) guest.Workload { return guest.PTChurn(n, true) },
			metric: "core.ptchurn_para_ns_per_op"},
		{name: "priv_hw", mode: core.ModeHW, size: 190_000, perOp: 1,
			kernel: func(n uint64) guest.Workload { return guest.Compute(n, 50) },
			metric: "core.priv_hw_ns_per_op"},
	},
}

const (
	// touchPages is the MemTouch working set: 4× the 256-entry TLB reach.
	touchPages = 1024
	// serialRAM fits the kernel, the 4 MiB touch working set and the boot
	// page tables.
	serialRAM = 8 << 20
	// runBudget is the runaway guard, in guest cycles, on every guest run.
	runBudget = 1 << 40
)

// phaseSpec is one guest run of a serial workload: a stream program when
// kernel is nil, otherwise the universal kernel with the given workload.
type phaseSpec struct {
	name   string
	mode   core.Mode
	stream guest.StreamKind
	unroll uint64
	kernel func(n uint64) guest.Workload
	size   uint64 // nominal iterations; frozen here, recorded in every result
	// metric is the per-layer T metric this phase feeds: host ns per guest
	// instruction, or per guest-level operation when perOp (operations per
	// iteration) is non-zero.
	metric string
	perOp  uint64
}

// params are the knobs of one run. The program under test only ever sees
// the guests generated from them.
type params struct {
	seed  uint64
	quick bool
}

// quickDivisor shrinks every size for smoke runs; never used for a claim.
const quickDivisor = 50

// rng is splitmix64: small, seedable, and stable across Go releases, which
// math/rand's stream is not promised to be.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stream derives an independent generator for one named use of the seed, so
// adding a consumer never shifts the values another consumer sees.
func (p params) stream(salt uint64) *rng {
	r := &rng{s: p.seed*0x9E3779B97F4A7C15 ^ salt}
	r.next()
	return r
}

// scale is the seed's size perturbation in [0.9975, 1.0025]: enough that
// every seed runs different guests with a different digest, little enough
// that the extensive metrics (wall_s, alloc_mib) compare across seeds without
// normalisation — the driver judges a metric by its spread over runs with
// different seeds, and alloc_mib is bounded at 2 %. One factor scales every
// size of a run, so the mix of phases is the same at every seed. Seed 1 is the
// golden seed and runs at exactly the frozen sizes.
func (p params) scale() float64 {
	if p.seed == 1 {
		return 1
	}
	return 0.9975 + 0.005*float64(p.stream(1).next()>>11)/float64(1<<53)
}

// n applies the seed scale and the quick divisor to a nominal size, rounding
// up to a multiple of align (virtio programs need whole kick batches).
func (p params) n(nominal, align uint64) uint64 {
	v := float64(nominal) * p.scale()
	if p.quick {
		v /= quickDivisor
	}
	n := uint64(math.Round(v))
	if n < 1 {
		n = 1
	}
	if align > 1 {
		n = (n + align - 1) / align * align
	}
	return n
}

// sizes returns the frozen nominal sizes of a workload, for the result file.
func sizes(workload string) map[string]uint64 {
	out := map[string]uint64{}
	if phases, ok := serialWorkloads[workload]; ok {
		for _, ph := range phases {
			out[ph.name] = ph.size
		}
		return out
	}
	for k, v := range fleetSizes[workload] {
		out[k] = v
	}
	return out
}

// bootPhase builds the guest image of a phase and boots it on a fresh VM
// with its own pool.
func bootPhase(ph phaseSpec, p params, kernel []byte) (*core.VM, uint64, error) {
	n := p.n(ph.size, 1)
	vm, err := core.NewVM(mem.NewPool(2*serialRAM>>isa.PageShift),
		core.Config{Name: ph.name, Mode: ph.mode, MemBytes: serialRAM})
	if err != nil {
		return nil, 0, err
	}
	img := kernel
	if ph.kernel != nil {
		ph.kernel(n).Apply(vm)
	} else if img, err = guest.BuildStreamProgram(ph.stream, n, ph.unroll); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", ph.name, err)
	}
	if err := vm.Boot(img); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", ph.name, err)
	}
	return vm, n, nil
}
