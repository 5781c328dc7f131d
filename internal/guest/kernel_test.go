package guest

import (
	"testing"

	"govisor/internal/core"
	"govisor/internal/dev"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/vcpu"
)

const (
	testRAM   = 8 << 20 // 8 MiB
	testPool  = 16 << 20 >> isa.PageShift
	runBudget = 2_000_000_000
)

func TestIntCtlClaimAddrMatchesDev(t *testing.T) {
	if intCtlClaimAddr != dev.IntCtlBase+dev.IntCtlClaim {
		t.Fatalf("intCtlClaimAddr %#x != dev %#x", intCtlClaimAddr, dev.IntCtlBase+dev.IntCtlClaim)
	}
}

func TestKernelAssembles(t *testing.T) {
	img, err := BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 500 {
		t.Fatalf("kernel suspiciously small: %d bytes", len(img))
	}
}

// bootAndRun builds a VM in the given mode, applies the workload, boots the
// shared kernel and runs to halt.
func bootAndRun(t *testing.T, mode core.Mode, w Workload) *core.VM {
	t.Helper()
	vm := bootVM(t, mode, w)
	state := vm.RunToHalt(runBudget)
	if state != core.StateHalted {
		t.Fatalf("[%v] final state %v (err=%v, pc=%#x, halt=%#x)",
			mode, state, vm.Err, vm.CPU.PC, vm.HaltCode)
	}
	if vm.HaltCode != 0 {
		t.Fatalf("[%v] guest panicked: halt=%#x cause=%d tval=%#x",
			mode, vm.HaltCode, vm.Result(gabi.PResult3), vm.Result(gabi.PResult2))
	}
	return vm
}

func bootVM(t *testing.T, mode core.Mode, w Workload) *core.VM {
	return bootVMCfg(t, mode, w, nil)
}

// bootVMCfg is bootVM with a config tweak hook (the refinement suite selects
// the reference engine through it).
func bootVMCfg(t *testing.T, mode core.Mode, w Workload, tweak func(*core.Config)) *core.VM {
	t.Helper()
	kernel, err := BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	pool := mem.NewPool(testPool)
	cfg := core.Config{Name: "t-" + mode.String(), Mode: mode, MemBytes: testRAM}
	if tweak != nil {
		tweak(&cfg)
	}
	vm, err := core.NewVM(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Apply(vm)
	if err := vm.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	return vm
}

var allModes = []core.Mode{core.ModeNative, core.ModeTrap, core.ModePara, core.ModeHW}

func TestComputeAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, Compute(100, 10))
			// 100 iterations × 10 adds × 3 = 3000.
			if got := vm.Result(gabi.PResult0); got != 3000 {
				t.Fatalf("result = %d", got)
			}
		})
	}
}

func TestComputeSlowdownOrdering(t *testing.T) {
	// With privileged ops in the loop, trap-and-emulate must be the
	// slowest and native the fastest; hw-assist close to native.
	cycles := map[core.Mode]uint64{}
	for _, mode := range allModes {
		vm := bootAndRun(t, mode, Compute(200, 20))
		cycles[mode] = regionCycles(t, vm)
	}
	if !(cycles[core.ModeNative] <= cycles[core.ModeHW]) {
		t.Errorf("native %d > hw %d", cycles[core.ModeNative], cycles[core.ModeHW])
	}
	if !(cycles[core.ModeHW] < cycles[core.ModeTrap]) {
		t.Errorf("hw %d >= trap %d", cycles[core.ModeHW], cycles[core.ModeTrap])
	}
	if !(cycles[core.ModeNative] < cycles[core.ModeTrap]) {
		t.Errorf("native %d >= trap %d", cycles[core.ModeNative], cycles[core.ModeTrap])
	}
}

// regionCycles extracts the cycles between markers 1 and 2.
func regionCycles(t *testing.T, vm *core.VM) uint64 {
	t.Helper()
	var start, end uint64
	for _, m := range vm.Markers {
		switch m.ID {
		case 1:
			start = m.Cycles
		case 2:
			end = m.Cycles
		}
	}
	if start == 0 || end <= start {
		t.Fatalf("markers missing: %+v", vm.Markers)
	}
	return end - start
}

func TestMemTouchAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, MemTouch(3, 64, 50))
			if vm.Mem.DirtySets == 0 {
				t.Error("memtouch with writes should dirty pages")
			}
		})
	}
}

func TestMemTouchNestedPaysMoreThanShadowBeyondTLB(t *testing.T) {
	// Working set far beyond TLB reach (256 entries): nested paging pays
	// 2-D walks on every miss, shadow pays 1-D once its one-time fill exits
	// are amortized — so run enough iterations to reach steady state.
	const pages = 1024
	shadow := bootAndRun(t, core.ModeTrap, MemTouch(24, pages, 0))
	nested := bootAndRun(t, core.ModeHW, MemTouch(24, pages, 0))
	cs, cn := regionCycles(t, shadow), regionCycles(t, nested)
	if cn <= cs {
		t.Errorf("nested %d should exceed shadow %d at %d pages", cn, cs, pages)
	}
}

func TestPTChurnAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, PTChurn(2, false))
			switch mode {
			case core.ModeTrap:
				if vm.Stats.PTWriteEmuls == 0 {
					t.Error("trap-mode churn must emulate PT writes")
				}
			case core.ModePara:
				if vm.Stats.ParaMaps == 0 {
					t.Error("para-mode churn must issue MMU hypercalls")
				}
			}
		})
	}
}

func TestPTChurnShadowSlowerThanNested(t *testing.T) {
	trap := bootAndRun(t, core.ModeTrap, PTChurn(4, false))
	hw := bootAndRun(t, core.ModeHW, PTChurn(4, false))
	ct, ch := regionCycles(t, trap), regionCycles(t, hw)
	if ct <= ch {
		t.Errorf("shadow churn %d should exceed nested churn %d", ct, ch)
	}
}

func TestPTChurnParaBatchingHelps(t *testing.T) {
	un := bootAndRun(t, core.ModePara, PTChurn(4, false))
	ba := bootAndRun(t, core.ModePara, PTChurn(4, true))
	cu, cb := regionCycles(t, un), regionCycles(t, ba)
	if cb >= cu {
		t.Errorf("batched %d should beat unbatched %d", cb, cu)
	}
	if un.Stats.ParaBatches != 0 || ba.Stats.ParaBatches == 0 {
		t.Errorf("batch stats: un=%d ba=%d", un.Stats.ParaBatches, ba.Stats.ParaBatches)
	}
}

func TestSyscallAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, Syscall(50))
			if got := vm.Result(gabi.PResult0); got != 50 {
				t.Fatalf("syscalls = %d", got)
			}
			ecalls := vm.CPU.Stats.Exits[vcpu.ExitEcall]
			switch mode {
			case core.ModeNative, core.ModeHW:
				// Syscalls vector directly; only the markers exit.
				if ecalls > 4 {
					t.Errorf("direct modes should not exit per syscall: %d", ecalls)
				}
			default:
				if ecalls < 50 {
					t.Errorf("deprivileged modes must exit per syscall: %d", ecalls)
				}
			}
		})
	}
}

func TestSyscallNativeCheaperThanTrap(t *testing.T) {
	nat := bootAndRun(t, core.ModeNative, Syscall(200))
	trp := bootAndRun(t, core.ModeTrap, Syscall(200))
	cn, ct := regionCycles(t, nat), regionCycles(t, trp)
	if cn >= ct {
		t.Errorf("native syscalls %d should be cheaper than trapped %d", cn, ct)
	}
}

func TestCSRLoopAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, CSRLoop(100))
			priv := vm.CPU.Stats.Exits[vcpu.ExitPriv]
			switch mode {
			case core.ModeTrap, core.ModePara:
				if priv < 200 {
					t.Errorf("deprivileged CSR loop should trap ≥200 times: %d", priv)
				}
			default:
				if priv != 0 {
					t.Errorf("privileged modes must not exit on CSRs: %d", priv)
				}
			}
		})
	}
}

func TestDirtyWorkloadDirtiesPages(t *testing.T) {
	vm := bootAndRun(t, core.ModeHW, Dirty(5, 32, 10))
	if got := vm.Result(gabi.PResult0); got != 5 {
		t.Fatalf("rounds = %d", got)
	}
	dirty := vm.Mem.CollectDirty(nil)
	if len(dirty) < 32 {
		t.Fatalf("dirty pages = %d", len(dirty))
	}
}

func TestIdleWorkloadTimerTicks(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			vm := bootAndRun(t, mode, Idle(5, 100_000))
			if got := vm.Result(gabi.PResult0); got != 5 {
				t.Fatalf("ticks = %d", got)
			}
			// Latency accumulator should be sane (≥ 0, bounded).
			lat := vm.Result(gabi.PResult1)
			if lat > 100_000*5*10 {
				t.Fatalf("latency accumulator = %d", lat)
			}
		})
	}
}

func TestGuestConsoleOutput(t *testing.T) {
	// The marker hypercalls exercise the hypercall path; check putchar too
	// by running compute and verifying the UART stays silent (no stray
	// output) — then the example programs print explicitly.
	vm := bootAndRun(t, core.ModeNative, Compute(1, 0))
	if vm.Output() != "" {
		t.Fatalf("unexpected console output %q", vm.Output())
	}
}

func TestDemandPagingFillsOnHeapTouch(t *testing.T) {
	// Lazy memory: the heap pages are unmapped until the workload touches
	// them; the VMM demand-fills.
	vm := bootAndRun(t, core.ModeHW, MemTouch(1, 128, 0))
	if vm.Stats.DemandFills < 100 {
		t.Fatalf("demand fills = %d", vm.Stats.DemandFills)
	}
}

func TestShadowEngineActiveOnlyInTrapMode(t *testing.T) {
	trap := bootAndRun(t, core.ModeTrap, MemTouch(1, 16, 0))
	if trap.Stats.ShadowFills == 0 {
		t.Error("trap mode should fill shadow entries")
	}
	hw := bootAndRun(t, core.ModeHW, MemTouch(1, 16, 0))
	if hw.Stats.ShadowFills != 0 {
		t.Error("hw mode must not touch the shadow engine")
	}
}
