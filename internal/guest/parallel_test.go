package guest

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/ksm"
	"govisor/internal/sched"
	"govisor/internal/vnet"
)

// fleetVM is one member of a differential fleet.
type fleetVM struct {
	name   string
	mode   core.Mode
	w      Workload
	weight uint64
	capPct uint64
}

// fleetSpec describes a host worth of VMs. The two specs mirror the paper's
// consolidation and overcommit scenarios: mixed virtualization modes packed
// onto fewer PCPUs than VMs, and a fleet whose virtual RAM exceeds the host
// pool (every VM demand-fills against the shared, sharded pool).
type fleetSpec struct {
	name       string
	poolFrames uint64
	pcpus      int
	vms        []fleetVM
}

func consolidationFleet() fleetSpec {
	return fleetSpec{
		name:       "consolidation",
		poolFrames: 16 << 20 >> isa.PageShift,
		pcpus:      2,
		vms: []fleetVM{
			{"hog-hw", core.ModeHW, Dirty(3, 16, 100), 512, 0},
			{"compute-trap", core.ModeTrap, Compute(300, 40), 256, 0},
			{"touch-para", core.ModePara, MemTouch(2, 64, 30), 256, 0},
			{"sys-native", core.ModeNative, Syscall(40), 128, 50},
		},
	}
}

func overcommitFleet() fleetSpec {
	// 4 × 8 MiB of virtual RAM (8192 pages) over a 1500-frame pool: the
	// host is overcommitted, but bounded working sets keep demand fills
	// under budget, so execution stays exactly reproducible.
	return fleetSpec{
		name:       "overcommit",
		poolFrames: 1500,
		pcpus:      3,
		vms: []fleetVM{
			{"oc0", core.ModeHW, MemTouch(2, 220, 50), 256, 0},
			{"oc1", core.ModeHW, MemTouch(3, 150, 70), 256, 0},
			{"oc2", core.ModeHW, Dirty(4, 32, 60), 256, 0},
			{"oc3", core.ModeHW, Compute(400, 30), 256, 0},
		},
	}
}

func schedPolicies() []struct {
	name string
	mk   func() core.LeaseScheduler
} {
	return []struct {
		name string
		mk   func() core.LeaseScheduler
	}{
		{"rr", func() core.LeaseScheduler { return sched.NewRoundRobin(core.DefaultQuantum) }},
		{"credit", func() core.LeaseScheduler { return sched.NewCredit() }},
		{"cfs", func() core.LeaseScheduler { return sched.NewCFS() }},
	}
}

// buildFleet boots a spec onto a fresh host.
func buildFleet(t *testing.T, spec fleetSpec, mk func() core.LeaseScheduler) *core.Host {
	return buildFleetCfg(t, spec, mk, nil)
}

// buildFleetCfg is buildFleet with a per-VM config tweak hook (the
// refinement suite selects the reference engine fleet-wide).
func buildFleetCfg(t *testing.T, spec fleetSpec, mk func() core.LeaseScheduler, tweak func(*core.Config)) *core.Host {
	t.Helper()
	kernel, err := BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewHost(spec.poolFrames, spec.pcpus, mk())
	for i, fv := range spec.vms {
		cfg := core.Config{Name: fv.name, Mode: fv.mode, MemBytes: testRAM}
		if tweak != nil {
			tweak(&cfg)
		}
		vm, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fv.w.Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, fv.weight, fv.capPct)
	}
	return h
}

// runFleetParallel drives a fleet to completion under the parallel engine.
func runFleetParallel(t *testing.T, h *core.Host, workers int) {
	t.Helper()
	h.RunParallel(workers, 8_000_000_000)
	if !h.AllHalted() {
		for _, vm := range h.VMs {
			t.Logf("%s: state %v err %v pc %#x", vm.Name, vm.State, vm.Err, vm.CPU.PC)
		}
		t.Fatalf("fleet did not run to halt with %d workers", workers)
	}
	for _, vm := range h.VMs {
		if vm.HaltCode != 0 {
			t.Fatalf("%s panicked: halt=%#x cause=%d", vm.Name, vm.HaltCode, vm.Result(gabi.PResult3))
		}
	}
}

// ramHash digests the full guest-physical image.
func ramHash(vm *core.VM) [32]byte {
	h := sha256.New()
	buf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		vm.Mem.ReadRaw(gfn, buf)
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// compareVMs asserts b is indistinguishable from a. full also compares the
// interpreter exit counters and memory-population statistics — valid between
// host runs, but not against a standalone RunToHalt reference, whose quantum
// slicing legitimately differs (ExitQuantum is host bookkeeping, not guest
// state).
func compareVMs(t *testing.T, label string, a, b *core.VM, full bool) {
	t.Helper()
	ca, cb := a.CPU, b.CPU
	if ca.Cycles != cb.Cycles || ca.Instret != cb.Instret {
		t.Errorf("%s: time diverged: (cyc=%d ret=%d) vs (cyc=%d ret=%d)",
			label, ca.Cycles, ca.Instret, cb.Cycles, cb.Instret)
	}
	if ca.X != cb.X || ca.PC != cb.PC || ca.Priv != cb.Priv {
		t.Errorf("%s: register state diverged", label)
	}
	if ca.CSR != cb.CSR {
		t.Errorf("%s: CSR state diverged: %+v vs %+v", label, ca.CSR, cb.CSR)
	}
	if a.Stats != b.Stats {
		t.Errorf("%s: VMM stats diverged: %+v vs %+v", label, a.Stats, b.Stats)
	}
	if a.MMUCtx.Stats != b.MMUCtx.Stats {
		t.Errorf("%s: MMU stats diverged: %+v vs %+v", label, a.MMUCtx.Stats, b.MMUCtx.Stats)
	}
	if a.MMUCtx.TLB.Stats != b.MMUCtx.TLB.Stats {
		t.Errorf("%s: TLB stats diverged: %+v vs %+v", label, a.MMUCtx.TLB.Stats, b.MMUCtx.TLB.Stats)
	}
	if a.Output() != b.Output() {
		t.Errorf("%s: UART output diverged: %q vs %q", label, a.Output(), b.Output())
	}
	for slot := gabi.PResult0; slot <= gabi.PResult3; slot++ {
		if a.Result(slot) != b.Result(slot) {
			t.Errorf("%s: result slot %d diverged: %d vs %d", label, slot, a.Result(slot), b.Result(slot))
		}
	}
	if ramHash(a) != ramHash(b) {
		t.Errorf("%s: guest RAM image diverged", label)
	}
	if full {
		if ca.Stats != cb.Stats {
			t.Errorf("%s: exit stats diverged: %+v vs %+v", label, ca.Stats, cb.Stats)
		}
		if a.Mem.DirtySets != b.Mem.DirtySets || a.Mem.COWBreaks != b.Mem.COWBreaks ||
			a.Mem.DemandFills != b.Mem.DemandFills || a.Mem.Present() != b.Mem.Present() {
			t.Errorf("%s: memory population/dirty accounting diverged", label)
		}
	}
}

func shares(h *core.Host) []float64 {
	if s, ok := h.Sched.(interface{ Shares() []float64 }); ok {
		return s.Shares()
	}
	return nil
}

// TestDifferentialParallelInvisible is the equivalence proof for the
// parallel execution engine, mirroring PR 1's icache transparency test: for
// every scheduler policy and both the consolidation and overcommit fleets,
// RunParallel with 1..4 workers must be byte-identical — per-VM cycles,
// instret, registers, CSRs, UART output, guest RAM hashes, VMM/MMU/TLB
// statistics, host clock, pool occupancy and per-VM scheduler fairness
// stats — and each VM must additionally match a standalone serial RunToHalt
// of the same configuration in all guest-visible state (scheduling, like
// the icache, may only change host time).
func TestDifferentialParallelInvisible(t *testing.T) {
	for _, spec := range []fleetSpec{consolidationFleet(), overcommitFleet()} {
		for _, pol := range schedPolicies() {
			t.Run(spec.name+"/"+pol.name, func(t *testing.T) {
				ref := buildFleet(t, spec, pol.mk)
				runFleetParallel(t, ref, 1)
				refShares := shares(ref)

				for workers := 2; workers <= 4; workers++ {
					h := buildFleet(t, spec, pol.mk)
					runFleetParallel(t, h, workers)
					if h.Now != ref.Now {
						t.Errorf("w=%d: host clock %d != %d", workers, h.Now, ref.Now)
					}
					if h.Pool.InUse() != ref.Pool.InUse() {
						t.Errorf("w=%d: pool occupancy %d != %d", workers, h.Pool.InUse(), ref.Pool.InUse())
					}
					for i := range h.VMs {
						compareVMs(t, fmt.Sprintf("w=%d vm=%s", workers, h.VMs[i].Name),
							ref.VMs[i], h.VMs[i], true)
					}
					for i, s := range shares(h) {
						if s != refShares[i] {
							t.Errorf("w=%d: fairness shares diverged: %v vs %v", workers, shares(h), refShares)
							break
						}
					}
				}

				// Serial reference: the same guest, alone on a machine, run
				// to halt in one go. Scheduling must be architecturally
				// invisible for run-to-completion workloads.
				for i, fv := range spec.vms {
					solo := bootVM(t, fv.mode, fv.w)
					if st := solo.RunToHalt(runBudget); st != core.StateHalted || solo.HaltCode != 0 {
						t.Fatalf("solo %s: state %v halt %#x err %v", fv.name, st, solo.HaltCode, solo.Err)
					}
					compareVMs(t, fmt.Sprintf("serial vm=%s", fv.name), solo, ref.VMs[i], false)
				}
			})
		}
	}
}

// TestParallelFleetRaceStress is the short-deadline concurrency hammer: six
// VMs dirtying memory over one sharded pool with four workers, while a KSM
// scan at every epoch barrier merges identical pages — so the following
// epochs' concurrent guest writes COW-break shared frames and concurrent
// fetches revalidate (and re-predecode) icache pages whose versions the
// remaps bumped. Run under -race this exercises the pool shard locks, the
// atomic budget, atomic page versions and the lease/barrier happens-before
// edges; functionally it must end with every VM alive and unmerged pages
// intact.
func TestParallelFleetRaceStress(t *testing.T) {
	kernel, err := BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	const nvms = 6
	h := core.NewHost(nvms*(testRAM>>isa.PageShift)+256, 4, sched.NewCredit())
	for i := 0; i < nvms; i++ {
		vm, err := h.CreateVM(core.Config{Name: fmt.Sprintf("s%d", i), Mode: core.ModeHW, MemBytes: testRAM})
		if err != nil {
			t.Fatal(err)
		}
		Dirty(0, 24+uint64(i*8), 40).Apply(vm) // unbounded: runs for the whole budget
		if err := vm.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	scanner := ksm.NewScanner(h.Pool)
	h.EpochFunc = func() {
		for _, vm := range h.VMs {
			scanner.ScanVM(vm.Mem)
		}
	}
	h.RunParallel(4, 6_000_000/raceScale)
	for _, vm := range h.VMs {
		if vm.State == core.StateError {
			t.Fatalf("%s died: %v", vm.Name, vm.Err)
		}
		if vm.Result(gabi.PResult0) == 0 {
			t.Fatalf("%s made no progress", vm.Name)
		}
	}
	if scanner.Stats.PagesMerged == 0 {
		t.Fatal("KSM barrier scan never merged a page — the stress lost its COW churn")
	}
}

// TestParallelAutoDefersSwitches: a fleet with inter-VM networking must not
// race or go nondeterministic under RunParallel — the engine flips attached
// switches into epoch-deferred delivery for the duration of the run (frames
// deliver at barriers in port order), restores the prior mode afterwards,
// and every traffic statistic is identical at every worker count.
func TestParallelAutoDefersSwitches(t *testing.T) {
	const frames = 12
	build := func() (*core.Host, *vnet.Switch) {
		sw := vnet.NewSwitch()
		h := core.NewHost(4*(testRAM>>isa.PageShift), 2, sched.NewCredit())
		prog, err := BuildRegNICProgram(frames, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			vm, err := h.CreateVM(core.Config{Name: fmt.Sprintf("net%d", i), Mode: core.ModeHW, MemBytes: testRAM})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.AttachRegNIC(sw.NewPort()); err != nil {
				t.Fatal(err)
			}
			if err := vm.Boot(prog); err != nil {
				t.Fatal(err)
			}
			h.AddToScheduler(i, 256, 0)
		}
		return h, sw
	}
	type netStats struct{ forwarded, flooded, dropped uint64 }
	var ref netStats
	for workers := 1; workers <= 4; workers++ {
		h, sw := build()
		h.RunParallel(workers, 4_000_000_000)
		if !h.AllHalted() {
			t.Fatalf("w=%d: net fleet did not halt", workers)
		}
		if sw.Deferred() {
			t.Fatalf("w=%d: switch left in deferred mode after run", workers)
		}
		got := netStats{sw.Forwarded, sw.Flooded, sw.Dropped}
		// The NIC guests transmit broadcast frames, so every frame floods to
		// the peer port and nothing is hairpin-filtered or unicast-forwarded.
		if got.forwarded+got.flooded+got.dropped != 2*frames {
			t.Fatalf("w=%d: %d frames entered the switch, want %d", workers,
				got.forwarded+got.flooded+got.dropped, 2*frames)
		}
		if got.flooded != 2*frames || got.dropped != 0 {
			t.Fatalf("w=%d: flooded=%d dropped=%d, want %d floods and no drops",
				workers, got.flooded, got.dropped, 2*frames)
		}
		if workers == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("w=%d: switch stats diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestIRQWakeRedispatches is the regression test for the device-wake
// starvation bug: a VM parked in WFI with no timer armed is woken by a NIC
// interrupt (frame delivery raises the external IRQ, which flips it to
// StateRunning without going through the timer wake path). The host must
// resync the scheduler and redispatch it, at any worker count.
func TestIRQWakeRedispatches(t *testing.T) {
	build := func() *core.Host {
		sw := vnet.NewSwitch()
		h := core.NewHost(4*(testRAM>>isa.PageShift), 2, sched.NewCredit())

		recv, err := h.CreateVM(core.Config{Name: "recv", Mode: core.ModeHW, MemBytes: testRAM})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recv.AttachRegNIC(sw.NewPort()); err != nil {
			t.Fatal(err)
		}
		rb := asm.NewBuilder(gabi.KernelBase)
		rb.Wfi() // no timer armed: only the NIC IRQ can wake this guest
		rb.Halt(0)
		rimg, err := rb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Boot(rimg); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(0, 256, 0)

		send, err := h.CreateVM(core.Config{Name: "send", Mode: core.ModeHW, MemBytes: testRAM})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.AttachRegNIC(sw.NewPort()); err != nil {
			t.Fatal(err)
		}
		prog, err := BuildRegNICProgram(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := send.Boot(prog); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(1, 256, 0)
		return h
	}

	for _, workers := range []int{1, 2} {
		h := build()
		h.RunParallel(workers, 200_000_000)
		name := fmt.Sprintf("w=%d", workers)
		if !h.AllHalted() {
			for _, vm := range h.VMs {
				t.Logf("[%s] %s: state %v err %v", name, vm.Name, vm.State, vm.Err)
			}
			t.Fatalf("[%s] IRQ-woken receiver was never redispatched", name)
		}
		// Tickless clock model: while parked in WFI the guest's clock tracks
		// wall time, so after the device wake the receiver must have absorbed
		// the wait for the sender's transmission (tens of MMIO exits, ≫5k
		// cycles) — not just its own handful of instructions.
		if recv := h.VMs[0]; recv.CPU.Cycles < 5_000 {
			t.Fatalf("[%s] IRQ wake did not sync the guest clock: %d cycles", name, recv.CPU.Cycles)
		}
	}
}
