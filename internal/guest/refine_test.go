package guest

import (
	"fmt"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
)

// The refinement suite: the fast engine (icache, threaded dispatch,
// superblocks, chain cache, traces, over the translation and resolution
// memos and span DMA) must be indistinguishable from the reference
// interpreter (core.Config.Reference) in everything a guest or an experiment
// can observe — cycles, instret, registers, CSRs, UART output, result slots,
// every RAM byte, exit counters, VMM/MMU/TLB statistics, dirty and
// population accounting, and under a host the clock and pool occupancy too.
// It may only change host time.
//
// One table: workloads × virtualization modes × drives, fast vs ref. The
// top-level test names are the ones the per-engine suites carried while the
// reference side was a lattice of Config.No* arms; each now selects one
// drive (serial) or one fleet (RunParallel) of this table, so every entry
// compares the same two engines but no two entries run the same experiment.

// drive is one way of configuring and stepping a VM to halt. Both engines
// of a comparison get the same drive. run returns the final state and a
// digest of where the VM stood every time the drive regained control, so
// the engines are held to the same instruction at every stop, not only at
// the halt.
type drive struct {
	tweak func(*core.Config)
	run   func(*core.VM) (core.State, uint64)
}

func runToHalt(vm *core.VM) (core.State, uint64) { return vm.RunToHalt(runBudget), 0 }

// runSliced drives the VM to halt in quantum-cycle slices, calling between
// (when non-nil) after each — so Run re-enters, and the quantum deadline
// lands, at thousands of different points of the instruction stream.
func runSliced(quantum uint64, between func(*core.VM)) func(*core.VM) (core.State, uint64) {
	return func(vm *core.VM) (core.State, uint64) {
		var stops uint64
		for spent := uint64(0); spent < runBudget; spent += quantum {
			st := vm.RunToHalt(quantum)
			for _, v := range []uint64{vm.CPU.Cycles, vm.CPU.Instret, vm.CPU.PC} {
				stops = (stops ^ v) * 0x100000001b3 // FNV-1a step over words
			}
			// A slice that ends in WFI leaves the VM idle; the next
			// RunToHalt fast-forwards it to its timer.
			if st != core.StateRunning && !(st == core.StateIdle && vm.CPU.CSR.Stimecmp != 0) {
				return st, stops
			}
			if between != nil {
				between(vm)
			}
		}
		return vm.State, stops
	}
}

var (
	// driveWhole: one RunToHalt, the way the CLI and the examples run a VM.
	driveWhole = drive{run: runToHalt}
	// driveSliced: a prime quantum far below any workload's length, so
	// deadlines land inside superblocks and trace passes all along the run
	// and the horizon admission must fall back on exactly the instruction
	// the reference interpreter stops at (ExitQuantum counts included).
	driveSliced = drive{run: runSliced(1009, nil)}
	// driveSkewed: a machine no other test builds — non-unit instruction
	// cost and coprime access/walk costs, so the batched accounting and the
	// worst-case span arithmetic are checked with every factor visible
	// (under DefaultCosts Instr is 1 and n·Instr hides behind n) — with the
	// TLB untagged, so every address-space switch flushes it and bumps the
	// generation the fetch memo, chain links and traces validate against.
	driveSkewed = drive{
		tweak: func(c *core.Config) {
			costs := vcpu.DefaultCosts()
			costs.Instr, costs.MemAccess, costs.PTRef = 3, 7, 13
			c.Costs = &costs
			c.NoASID = true
		},
		run: runSliced(4099, nil),
	}
	// driveDirtyLog: the host harvests the dirty log between slices, as
	// pre-copy migration does. CollectDirty clears dirty bits without
	// bumping page versions, so the write memo's epoch is the only thing
	// standing between a memoized store and a lost DirtySets count.
	driveDirtyLog = drive{run: runSliced(10_007, func(vm *core.VM) { vm.Mem.CollectDirty(nil) })}
)

// layer names one part of the fast engine and reports whether a VM's run
// engaged it: the vacuity guard for guests built to provoke that part.
type layer struct {
	did     string
	engaged func(*core.VM) bool
}

var (
	wmemoHit = layer{"hit the write memo", func(vm *core.VM) bool { return vm.Mem.WMemoHits > 0 }}
	// Block dispatch replaces per-instruction icache lookups, so a run that
	// used superblocks does strictly fewer lookups than it retires
	// instructions.
	blocksDispatched = layer{"dispatched a superblock", func(vm *core.VM) bool {
		st := vm.CPU.ICache.Stats
		return st.Hits+st.Misses+st.Invalidations < vm.CPU.Instret
	}}
	chained = layer{"chained across a page boundary", func(vm *core.VM) bool {
		st := vm.CPU.ICache.Stats
		return st.Crossings > 0 && st.ChainHits > 0
	}}
	traced = layer{"formed and entered a trace", func(vm *core.VM) bool {
		st := vm.CPU.ICache.Stats
		return st.TraceFormations > 0 && st.TraceEntries > 0
	}}
)

// checkRefines boots one guest on each engine, drives both identically and
// demands full-state equality, then checks the comparison had teeth: the
// fast VM ran the fast engine (including every layer in want) and the
// reference VM touched none of it.
func checkRefines(t *testing.T, boot func(func(*core.Config)) *core.VM, d drive, want ...layer) {
	t.Helper()
	run := func(reference bool) (*core.VM, uint64) {
		vm := boot(func(c *core.Config) {
			c.Reference = reference
			if d.tweak != nil {
				d.tweak(c)
			}
		})
		st, stops := d.run(vm)
		if st != core.StateHalted {
			t.Fatalf("reference=%v: final state %v (err=%v, pc=%#x)", reference, st, vm.Err, vm.CPU.PC)
		}
		if vm.HaltCode != 0 {
			t.Fatalf("reference=%v: guest panicked: halt=%#x", reference, vm.HaltCode)
		}
		return vm, stops
	}
	fast, fastStops := run(false)
	ref, refStops := run(true)
	compareVMs(t, "fast vs ref", ref, fast, true)
	if fastStops != refStops {
		t.Error("the engines stopped at different instructions at some slice boundary")
	}
	checkReferenceVM(t, ref)
	if ic := fast.CPU.ICache; ic == nil || ic.Stats.Hits == 0 {
		t.Error("fast run never hit the decoded-instruction cache")
	}
	if fast.Mem.WMemoFills == 0 {
		t.Error("fast run never filled the write memo")
	}
	for _, l := range want {
		if !l.engaged(fast) {
			t.Errorf("fast run never %s: %+v", l.did, fast.CPU.ICache.Stats)
		}
	}
}

// checkReferenceVM asserts a VM really ran the reference engine: no icache
// (so no superblocks, chain links or traces) and an untouched write memo.
func checkReferenceVM(t *testing.T, vm *core.VM) {
	t.Helper()
	if vm.CPU.ICache != nil {
		t.Errorf("%s: reference VM has an icache attached", vm.Name)
	}
	if vm.Mem.WMemoHits != 0 || vm.Mem.WMemoFills != 0 {
		t.Errorf("%s: reference VM touched the write memo (hits=%d fills=%d)",
			vm.Name, vm.Mem.WMemoHits, vm.Mem.WMemoFills)
	}
}

// refineWorkloads is the union of the kernel workloads the per-engine
// suites ran.
var refineWorkloads = []struct {
	name string
	w    Workload
	want []layer // layers the workload reliably engages, beyond the icache
}{
	{"compute-hot", Compute(300, 50), nil},                // straight-line ALU runs, CSR terminators (the F3 loop)
	{"memtouch", MemTouch(4, 300, 40), nil},               // TLB pressure: fetch entries compete with data; memo slot collisions
	{"store-hot", MemTouch(6, 4, 100), []layer{wmemoHit}}, // page-local write loop: the write memo's target shape
	{"ptchurn", PTChurn(2, false), nil},                   // SFENCE flushes, stores into tracked PT pages (wprot faults)
	{"syscall", Syscall(60), nil},                         // trap entry/SRET privilege flips mid-stream
	{"csr", CSRLoop(80), nil},                             // CSR exits every few instructions
	{"idle", Idle(3, 50_000), nil},                        // WFI, STIMECMP latches near block horizons, re-entry
}

// refineKernel runs every kernel workload in every mode under one drive.
func refineKernel(t *testing.T, d drive) {
	for _, mode := range allModes {
		for _, wl := range refineWorkloads {
			t.Run(mode.String()+"/"+wl.name, func(t *testing.T) {
				boot := func(tweak func(*core.Config)) *core.VM { return bootVMCfg(t, mode, wl.w, tweak) }
				checkRefines(t, boot, d, wl.want...)
			})
		}
	}
}

func TestDifferentialICacheInvisible(t *testing.T)           { refineKernel(t, driveWhole) }
func TestDifferentialSuperblockInvisible(t *testing.T)       { refineKernel(t, driveSliced) }
func TestDifferentialThreadedDispatchInvisible(t *testing.T) { refineKernel(t, driveSkewed) }
func TestDifferentialWriteMemoInvisible(t *testing.T)        { refineKernel(t, driveDirtyLog) }

// bootImage boots a standalone guest image (the torture guests) without
// running it.
func bootImage(t *testing.T, mode core.Mode, img []byte, tweak func(*core.Config)) *core.VM {
	t.Helper()
	cfg := core.Config{Name: "img-" + mode.String(), Mode: mode, MemBytes: testRAM}
	if tweak != nil {
		tweak(&cfg)
	}
	vm, err := core.NewVM(mem.NewPool(2*testRAM>>isa.PageShift), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	return vm
}

// refineTorture runs seeded torture guests in every mode; want is the layer
// the guests are built to provoke, which the fast run must have used.
func refineTorture(t *testing.T, build func(*testing.T, int64) []byte, seeds []int64, want layer) {
	for _, seed := range seeds {
		img := build(t, seed)
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				boot := func(tweak func(*core.Config)) *core.VM { return bootImage(t, mode, img, tweak) }
				checkRefines(t, boot, driveWhole, want)
			})
		}
	}
}

func TestDifferentialBlockChainInvisible(t *testing.T) {
	refineTorture(t, buildChainTorture, []int64{1, 7, 23}, chained)
}

func TestDifferentialTraceInvisible(t *testing.T) {
	refineTorture(t, buildTraceTorture, []int64{3, 17, 41}, traced)
}

// refineFleet extends the proof to the parallel host: a fleet on the fast
// engine under RunParallel at 1..4 workers must be byte-identical — per VM
// in full, plus host clock and pool occupancy — to the same fleet on the
// reference engine. Epoch-lease quantum slicing is the sensitive part: the
// fast engine must stop at exactly the lease deadlines the reference
// interpreter observes. At every worker count some VM must have engaged
// want.
func refineFleet(t *testing.T, build func(tweak func(*core.Config)) *core.Host, want layer) {
	ref := build(func(c *core.Config) { c.Reference = true })
	runFleetParallel(t, ref, 1)
	for _, vm := range ref.VMs {
		checkReferenceVM(t, vm)
	}
	for workers := 1; workers <= 4; workers++ {
		h := build(nil)
		runFleetParallel(t, h, workers)
		if h.Now != ref.Now {
			t.Errorf("w=%d: host clock %d != %d", workers, h.Now, ref.Now)
		}
		if h.Pool.InUse() != ref.Pool.InUse() {
			t.Errorf("w=%d: pool occupancy %d != %d", workers, h.Pool.InUse(), ref.Pool.InUse())
		}
		engaged := false
		for i, vm := range h.VMs {
			compareVMs(t, fmt.Sprintf("w=%d vm=%s", workers, vm.Name), ref.VMs[i], vm, true)
			engaged = engaged || want.engaged(vm)
		}
		if !engaged {
			t.Errorf("w=%d: no VM ever %s", workers, want.did)
		}
	}
}

// kernelFleet builds a fleetSpec under a scheduler policy.
func kernelFleet(t *testing.T, spec fleetSpec, mk func() core.LeaseScheduler) func(func(*core.Config)) *core.Host {
	return func(tweak func(*core.Config)) *core.Host { return buildFleetCfg(t, spec, mk, tweak) }
}

// imageFleet builds four HW-mode VMs, one per torture image, under credit.
func imageFleet(t *testing.T, imgs [][]byte) func(func(*core.Config)) *core.Host {
	return func(tweak func(*core.Config)) *core.Host {
		h := core.NewHost(16<<20>>isa.PageShift, 2, sched.NewCredit())
		for i, img := range imgs {
			cfg := core.Config{Name: fmt.Sprintf("img%d", i), Mode: core.ModeHW, MemBytes: testRAM}
			if tweak != nil {
				tweak(&cfg)
			}
			vm, err := h.CreateVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Boot(img); err != nil {
				t.Fatal(err)
			}
			h.AddToScheduler(i, 256, 0)
		}
		return h
	}
}

func TestDifferentialSuperblockParallel(t *testing.T) {
	refineFleet(t, kernelFleet(t, consolidationFleet(), func() core.LeaseScheduler { return sched.NewCredit() }),
		blocksDispatched)
}

func TestDifferentialThreadedDispatchParallel(t *testing.T) {
	refineFleet(t, kernelFleet(t, overcommitFleet(), func() core.LeaseScheduler { return sched.NewCFS() }),
		blocksDispatched)
}

func TestDifferentialWriteMemoParallel(t *testing.T) {
	refineFleet(t, kernelFleet(t, consolidationFleet(), func() core.LeaseScheduler { return sched.NewRoundRobin(core.DefaultQuantum) }),
		wmemoHit)
}

func TestDifferentialBlockChainParallel(t *testing.T) {
	imgs := [][]byte{buildChainTorture(t, 101), buildChainTorture(t, 202), buildChainTorture(t, 303), buildChainTorture(t, 404)}
	refineFleet(t, imageFleet(t, imgs), chained)
}

func TestDifferentialTraceParallel(t *testing.T) {
	imgs := [][]byte{buildTraceTorture(t, 111), buildTraceTorture(t, 222), buildTraceTorture(t, 333), buildTraceTorture(t, 444)}
	refineFleet(t, imageFleet(t, imgs), traced)
}
