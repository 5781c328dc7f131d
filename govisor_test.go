package govisor_test

import (
	"bytes"
	"testing"

	"govisor"
)

// TestPublicAPIQuickstart runs the documented quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := govisor.NewVM(govisor.NewPool(32<<20>>12), govisor.Config{
		Name: "demo", Mode: govisor.ModeHW, MemBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	govisor.Compute(1000, 10).Apply(vm)
	if err := vm.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(1e9); st != govisor.StateHalted {
		t.Fatalf("state %v", st)
	}
	if vm.Result(govisor.ResultPrimary) == 0 {
		t.Fatal("no result")
	}
}

// TestIntegrationCloneThenMigrate chains the memory services: boot, clone
// copy-on-write, then live-migrate the clone to a second host pool.
func TestIntegrationCloneThenMigrate(t *testing.T) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	poolA := govisor.NewPool(64 << 20 >> 12)
	src, err := govisor.NewVM(poolA, govisor.Config{Name: "src", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	govisor.Dirty(0, 16, 500).Apply(src)
	if err := src.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	src.Step(3_000_000)
	src.Pause()

	clone, err := govisor.NewVM(poolA, govisor.Config{Name: "clone", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := govisor.CloneVM(src, clone); err != nil {
		t.Fatal(err)
	}
	clone.Step(3_000_000)
	if clone.State == govisor.StateError {
		t.Fatalf("clone errored: %v", clone.Err)
	}

	// Migrate the running clone to a second "host".
	poolB := govisor.NewPool(64 << 20 >> 12)
	dst, err := govisor.NewVM(poolB, govisor.Config{Name: "dst", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := govisor.Migrate(clone, dst, govisor.DefaultMigrateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesSent == 0 {
		t.Fatal("nothing transferred")
	}
	before := dst.Result(govisor.ResultPrimary)
	dst.Step(30_000_000)
	if dst.Result(govisor.ResultPrimary) <= before {
		t.Fatal("migrated clone made no progress")
	}
	// And the original still resumes untouched.
	src.Resume()
	src.Step(3_000_000)
	if src.State == govisor.StateError {
		t.Fatalf("original broken: %v", src.Err)
	}
}

// TestIntegrationSnapshotAcrossHosts: snapshot on one host, restore on
// another, with dedup reclaiming the duplicate pages afterwards.
func TestIntegrationSnapshotDedup(t *testing.T) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	pool := govisor.NewPool(64 << 20 >> 12)
	a, err := govisor.NewVM(pool, govisor.Config{Name: "a", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	govisor.Dirty(0, 16, 500).Apply(a)
	if err := a.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	a.Step(3_000_000)
	a.Pause()

	var img bytes.Buffer
	if err := govisor.SaveSnapshot(a, &img); err != nil {
		t.Fatal(err)
	}
	b, err := govisor.NewVM(pool, govisor.Config{Name: "b", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := govisor.RestoreSnapshot(b, &img); err != nil {
		t.Fatal(err)
	}

	// a and b now hold identical content: dedup should reclaim frames.
	before := pool.InUse()
	sc := govisor.NewDedupScanner(pool)
	sc.ScanVM(a.Mem)
	sc.ScanVM(b.Mem)
	if pool.InUse() >= before {
		t.Fatalf("dedup freed nothing: %d → %d", before, pool.InUse())
	}
	// Both keep running after the merge (COW splits under them).
	b.Step(10_000_000)
	if b.State == govisor.StateError {
		t.Fatalf("restored vm errored: %v", b.Err)
	}
}

// TestIntegrationHostSchedulerWithIO runs VMs with different personalities
// (CPU hog + I/O) under the credit scheduler on one host.
func TestIntegrationHostSchedulerWithIO(t *testing.T) {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	host := govisor.NewHost(64<<20>>12, 2, govisor.NewCredit())
	// Two compute hogs.
	for i := 0; i < 2; i++ {
		vm, err := host.CreateVM(govisor.Config{Name: "hog", Mode: govisor.ModeHW, MemBytes: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		govisor.Dirty(0, 8, 100).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		host.AddToScheduler(i, 256, 0)
	}
	// One virtio-blk I/O VM.
	io, err := host.CreateVM(govisor.Config{Name: "io", Mode: govisor.ModeHW, MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	blkImg := govisor.NewRawImage(8192)
	if _, _, err := io.AttachVirtioBlk(blkImg); err != nil {
		t.Fatal(err)
	}
	prog, err := govisor.BuildVirtioBlkProgram(64, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := io.Boot(prog); err != nil {
		t.Fatal(err)
	}
	host.AddToScheduler(2, 256, 0)

	host.RunParallel(1, 60_000_000)
	if io.State != govisor.StateHalted {
		t.Fatalf("io vm state %v (err %v)", io.State, io.Err)
	}
	if blkImg.Writes != 64 {
		t.Fatalf("disk writes = %d", blkImg.Writes)
	}
	for i := 0; i < 2; i++ {
		if host.VMs[i].Result(govisor.ResultPrimary) == 0 {
			t.Fatal("hog starved")
		}
	}
}

// TestIntegrationCOWDiskWithVM: virtio-blk over a COW chain; writes land in
// the top layer only.
func TestIntegrationCOWDiskWithVM(t *testing.T) {
	base := govisor.NewRawImage(8192)
	gold := govisor.NewCOWImage(base)
	top := gold.Snapshot()

	vm, err := govisor.NewVM(govisor.NewPool(32<<20>>12), govisor.Config{
		Name: "cow", Mode: govisor.ModeHW, MemBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vm.AttachVirtioBlk(top); err != nil {
		t.Fatal(err)
	}
	prog, err := govisor.BuildVirtioBlkProgram(32, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(prog); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(5e9); st != govisor.StateHalted || vm.HaltCode != 0 {
		t.Fatalf("state %v code %#x", st, vm.HaltCode)
	}
	if top.Allocated() != 32 {
		t.Fatalf("top layer sectors = %d", top.Allocated())
	}
	if gold.Allocated() != 0 {
		t.Fatal("gold layer must stay untouched")
	}
}
