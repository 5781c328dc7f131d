package snapshot

import (
	"bytes"
	"testing"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

const vmRAM = 2 << 20

func runningVM(t *testing.T, pool *mem.Pool, name string) *core.VM {
	t.Helper()
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := core.NewVM(pool, core.Config{Name: name, Mode: core.ModeHW, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	guest.Dirty(0, 16, 500).Apply(vm)
	if err := vm.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	vm.Step(3_000_000)
	if vm.State != core.StateRunning {
		t.Fatalf("vm state %v err %v", vm.State, vm.Err)
	}
	return vm
}

func freshVM(t *testing.T, pool *mem.Pool, name string) *core.VM {
	t.Helper()
	return newVM(t, pool, name, core.ModeHW)
}

func newVM(t *testing.T, pool *mem.Pool, name string, mode core.Mode) *core.VM {
	t.Helper()
	vm, err := core.NewVM(pool, core.Config{Name: name, Mode: mode, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	pool := mem.NewPool(4 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()
	// A running guest's halt code is zero; set one so the test sees it
	// carried. Params are non-zero from Boot.
	src.HaltCode = 0x5A

	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}

	dst := freshVM(t, pool, "dst")
	if err := Restore(dst, &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.CaptureArch(), src.CaptureArch(); got != want {
		t.Fatalf("arch state mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Restored guest continues the workload.
	before := dst.Result(gabi.PResult0)
	dst.Step(30_000_000)
	if dst.State == core.StateError {
		t.Fatalf("restored vm errored: %v", dst.Err)
	}
	if dst.Result(gabi.PResult0) <= before {
		t.Fatal("restored vm made no progress")
	}
}

func TestSnapshotElidesZeroPages(t *testing.T) {
	pool := mem.NewPool(4 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	// Far smaller than full RAM: only touched pages are stored.
	if buf.Len() >= vmRAM {
		t.Fatalf("snapshot %d bytes for %d RAM", buf.Len(), vmRAM)
	}
}

func TestRestoreRejectsCorruptStream(t *testing.T) {
	pool := mem.NewPool(4 * vmRAM >> isa.PageShift)
	dst := freshVM(t, pool, "dst")
	if err := Restore(dst, bytes.NewReader([]byte("not a snapshot, definitely"))); err == nil {
		t.Fatal("corrupt stream accepted")
	}
	if err := Restore(dst, bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestRestoreRejectsModeMismatch(t *testing.T) {
	pool := mem.NewPool(8 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	wrong, err := core.NewVM(pool, core.Config{Name: "wrong", Mode: core.ModeTrap, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(wrong, &buf); err == nil {
		t.Fatal("mode mismatch accepted")
	}
}

func TestCloneSharesAndSplits(t *testing.T) {
	pool := mem.NewPool(4 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()

	inUseBefore := pool.InUse()
	dst := freshVM(t, pool, "clone")
	if err := Clone(src, dst); err != nil {
		t.Fatal(err)
	}
	// Cloning allocates no frames.
	if pool.InUse() != inUseBefore {
		t.Fatalf("clone allocated frames: %d → %d", inUseBefore, pool.InUse())
	}
	// Both run independently.
	src.Resume()
	src.Step(20_000_000)
	dst.Step(20_000_000)
	if src.State == core.StateError || dst.State == core.StateError {
		t.Fatalf("src=%v dst=%v (%v/%v)", src.State, dst.State, src.Err, dst.Err)
	}
	// Writes split frames: usage grows past the shared baseline.
	if pool.InUse() <= inUseBefore {
		t.Fatal("COW splits should have allocated")
	}
	if dst.Mem.COWBreaks == 0 && src.Mem.COWBreaks == 0 {
		t.Fatal("no COW breaks recorded")
	}
}

func TestCloneRequiresSharedPool(t *testing.T) {
	poolA := mem.NewPool(4 * vmRAM >> isa.PageShift)
	poolB := mem.NewPool(4 * vmRAM >> isa.PageShift)
	src := runningVM(t, poolA, "src")
	src.Pause()
	dst := freshVM(t, poolB, "dst")
	if err := Clone(src, dst); err == nil {
		t.Fatal("cross-pool clone accepted")
	}
}

func TestCloneRejectsBootedDestination(t *testing.T) {
	pool := mem.NewPool(8 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()
	dst := runningVM(t, pool, "dst")
	if err := Clone(src, dst); err == nil {
		t.Fatal("running destination accepted")
	}
}

// TestCloneAndRestoreFinishLikeTwin: a guest cloned or restored mid-run
// finishes with the halt code and result slots of an uninterrupted twin, in
// every mode whose state may move, and so does the source it was taken
// from. Cycles and instret may differ: a receiver starts with a cold TLB
// and its zero pages unbacked.
func TestCloneAndRestoreFinishLikeTwin(t *testing.T) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		w    guest.Workload
	}{
		{"ptchurn", guest.PTChurn(20, false)},
		{"memtouch", guest.MemTouch(16, 128, 30)},
		{"syscall", guest.Syscall(2000)},
	}
	const budget = 500_000_000
	for _, mode := range []core.Mode{core.ModeNative, core.ModeTrap, core.ModeHW} {
		for _, wl := range workloads {
			t.Run(mode.String()+"/"+wl.name, func(t *testing.T) {
				pool := mem.NewPool(8 * vmRAM >> isa.PageShift)
				boot := func(name string) *core.VM {
					vm := newVM(t, pool, name, mode)
					wl.w.Apply(vm)
					if err := vm.Boot(kernel); err != nil {
						t.Fatal(err)
					}
					return vm
				}
				twin := boot("twin")
				if st := twin.RunToHalt(budget); st != core.StateHalted {
					t.Fatalf("twin ended %v (err %v)", st, twin.Err)
				}
				src := boot("src")
				src.Step(twin.CPU.Cycles / 2)
				if src.State != core.StateRunning {
					t.Fatalf("source is %v at mid-run", src.State)
				}
				src.Pause()
				var img bytes.Buffer
				if err := Save(src, &img); err != nil {
					t.Fatal(err)
				}
				restored := newVM(t, pool, "restored", mode)
				if err := Restore(restored, &img); err != nil {
					t.Fatal(err)
				}
				clone := newVM(t, pool, "clone", mode)
				if err := Clone(src, clone); err != nil {
					t.Fatal(err)
				}
				src.Resume()
				for _, vm := range []*core.VM{src, clone, restored} {
					if st := vm.RunToHalt(budget); st != core.StateHalted || vm.HaltCode != twin.HaltCode {
						t.Fatalf("%s ended %v halt %#x (err %v), twin halt %#x", vm.Name, st, vm.HaltCode, vm.Err, twin.HaltCode)
					}
					for slot := gabi.PResult0; slot <= gabi.PResult3; slot++ {
						if got, want := vm.Result(slot), twin.Result(slot); got != want {
							t.Errorf("%s result slot %d = %#x, twin %#x", vm.Name, slot, got, want)
						}
					}
				}
			})
		}
	}
}
