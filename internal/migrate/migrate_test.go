package migrate

import (
	"testing"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

const (
	vmRAM  = 2 << 20
	frames = 4 * (vmRAM >> isa.PageShift)
)

// pair builds a running source VM (dirty-page mutator workload) and a fresh
// destination.
func pair(t *testing.T, dirtyPages, thinkOps uint64) (*core.VM, *core.VM) {
	t.Helper()
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	pool := mem.NewPool(frames)
	src, err := core.NewVM(pool, core.Config{Name: "src", Mode: core.ModeHW, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	guest.Dirty(0, dirtyPages, thinkOps).Apply(src) // runs forever
	if err := src.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	// Warm up: let the workload touch its pages.
	src.Step(5_000_000 / raceScale)
	if src.State != core.StateRunning {
		t.Fatalf("source state %v (err=%v)", src.State, src.Err)
	}
	dst, err := core.NewVM(pool, core.Config{Name: "dst", Mode: core.ModeHW, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// verifyDestRuns resumes the destination and checks the workload continues.
func verifyDestRuns(t *testing.T, dst *core.VM) {
	t.Helper()
	before := dst.Result(gabi.PResult0)
	dst.Step(50_000_000 / raceScale)
	if dst.State == core.StateError {
		t.Fatalf("destination errored: %v", dst.Err)
	}
	after := dst.Result(gabi.PResult0)
	if after <= before {
		t.Fatalf("destination made no progress: %d → %d", before, after)
	}
}

func TestPreCopyMigratesAndConverges(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	opt := DefaultOptions()
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Errorf("slow dirtier should converge: %+v", rep.Rounds)
	}
	if len(rep.Rounds) < 2 {
		t.Errorf("rounds = %d", len(rep.Rounds))
	}
	if rep.DowntimeCycles == 0 || rep.DowntimeCycles >= rep.TotalCycles {
		t.Errorf("downtime %d of total %d", rep.DowntimeCycles, rep.TotalCycles)
	}
	if src.State != core.StatePaused {
		t.Errorf("source state %v", src.State)
	}
	verifyDestRuns(t, dst)
}

func TestPreCopyMemoryIdenticalAtSwitchover(t *testing.T) {
	src, dst := pair(t, 8, 5000)
	if _, err := Migrate(src, dst, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// The source is paused: every present source page must match dst.
	sbuf := make([]byte, isa.PageSize)
	dbuf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
		if src.Mem.Frame(gfn) == mem.NoFrame {
			continue
		}
		src.Mem.ReadRaw(gfn, sbuf)
		dst.Mem.ReadRaw(gfn, dbuf)
		for i := range sbuf {
			if sbuf[i] != dbuf[i] {
				t.Fatalf("gfn %d differs at byte %d", gfn, i)
			}
		}
	}
	// CPU state adopted.
	if dst.CPU.PC != src.CPU.PC {
		t.Fatalf("pc %#x vs %#x", dst.CPU.PC, src.CPU.PC)
	}
	if dst.CPU.CSR.Satp != src.CPU.CSR.Satp {
		t.Fatal("satp not adopted")
	}
}

// TestPreCopyDirtyRoundsObserveWriteMemo is the regression test for the
// memo-vs-migration interaction: the pre-copy engine's dirty rounds call
// CollectDirty directly, which clears dirty bits without bumping page
// versions — so only the write-epoch invalidation forces the guest's
// post-round stores (which run through the write memo) back through
// resolveWrite, where they re-dirty. If the memo ever kept serving stores
// after a round, later rounds would see empty dirty sets, pre-copy would
// "converge" instantly, and the destination would silently lose every
// post-round store. The test proves the iterative rounds keep observing
// stores with the memo enabled, and that the whole migration — round page
// counts, bytes, downtime, destination RAM — is byte-identical to the
// same migration run on the reference engine.
func TestPreCopyDirtyRoundsObserveWriteMemo(t *testing.T) {
	run := func(reference bool) (Report, *core.VM) {
		kernel, err := guest.BuildKernel()
		if err != nil {
			t.Fatal(err)
		}
		pool := mem.NewPool(frames)
		cfg := core.Config{Name: "src", Mode: core.ModeHW, MemBytes: vmRAM, Reference: reference}
		src, err := core.NewVM(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Six dirty pages: fewer than the write memo's slot count, so each
		// mutation round's stores hit the previous round's memo entries —
		// the exact warm-memo-across-CollectDirty interaction under test.
		guest.Dirty(0, 6, 30).Apply(src)
		if err := src.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		src.Step(5_000_000 / raceScale)
		if src.State != core.StateRunning {
			t.Fatalf("source state %v (err=%v)", src.State, src.Err)
		}
		if !reference && src.Mem.WMemoHits == 0 {
			t.Fatal("warm-up never hit the write memo — vacuous regression test")
		}
		cfg.Name = "dst"
		dst, err := core.NewVM(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Link = Gbps(1, 50) // slow link: dirty rounds must iterate
		opt.StopThresholdPages = 2
		opt.MaxRounds = 6
		rep, err := Migrate(src, dst, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep, dst
	}

	repMemo, dstMemo := run(false)
	repRef, dstRef := run(true)

	// The guest dirties 48 pages per round; iterative rounds must keep
	// finding them — a memo that swallowed post-round stores would produce
	// empty rounds after the first.
	if len(repMemo.Rounds) < 3 {
		t.Fatalf("only %d pre-copy rounds — dirty logging under the memo lost its feed", len(repMemo.Rounds))
	}
	for i, r := range repMemo.Rounds[1 : len(repMemo.Rounds)-1] {
		if r.Pages == 0 {
			t.Fatalf("iterative round %d resent 0 pages: post-round stores invisible to CollectDirty", i+1)
		}
	}

	// Fast and reference engines must agree on the whole migration, bit for bit.
	if len(repMemo.Rounds) != len(repRef.Rounds) {
		t.Fatalf("round counts diverged: %d vs %d", len(repMemo.Rounds), len(repRef.Rounds))
	}
	for i := range repMemo.Rounds {
		if repMemo.Rounds[i] != repRef.Rounds[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i, repMemo.Rounds[i], repRef.Rounds[i])
		}
	}
	if repMemo.BytesSent != repRef.BytesSent || repMemo.DowntimeCycles != repRef.DowntimeCycles ||
		repMemo.TotalCycles != repRef.TotalCycles || repMemo.Converged != repRef.Converged {
		t.Fatalf("reports diverged:\nmemo %+v\nref  %+v", repMemo, repRef)
	}
	buf1 := make([]byte, isa.PageSize)
	buf2 := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < dstMemo.Mem.Pages(); gfn++ {
		dstMemo.Mem.ReadRaw(gfn, buf1)
		dstRef.Mem.ReadRaw(gfn, buf2)
		for i := range buf1 {
			if buf1[i] != buf2[i] {
				t.Fatalf("destination RAM diverged at gfn %d byte %d", gfn, i)
			}
		}
	}
	verifyDestRuns(t, dstMemo)
}

func TestPreCopyNonConvergenceAtHighDirtyRate(t *testing.T) {
	// Fast dirtier (no think time, large set) over a slow link cannot
	// converge; the algorithm must cap rounds and force stop-and-copy.
	src, dst := pair(t, 320, 0)
	opt := DefaultOptions()
	opt.Link = Gbps(0.5, 50) // slow link
	opt.MaxRounds = 5
	opt.StopThresholdPages = 8
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Errorf("fast dirtier over slow link should not converge")
	}
	if len(rep.Rounds) < opt.MaxRounds {
		t.Errorf("rounds = %d", len(rep.Rounds))
	}
	verifyDestRuns(t, dst)
}

func TestDowntimeGrowsWithDirtyRate(t *testing.T) {
	downtime := func(pages, think uint64) uint64 {
		src, dst := pair(t, pages, think)
		opt := DefaultOptions()
		opt.StopThresholdPages = 4
		opt.MaxRounds = 8
		rep, err := Migrate(src, dst, opt)
		if err != nil {
			t.Fatal(err)
		}
		verifyDestRuns(t, dst)
		return rep.DowntimeCycles
	}
	slow := downtime(8, 5000)
	fast := downtime(320, 0)
	if fast <= slow {
		t.Errorf("downtime slow=%d fast=%d; should grow with dirty rate", slow, fast)
	}
}

func TestStopAndCopyDowntimeEqualsTotal(t *testing.T) {
	src, dst := pair(t, 16, 1000)
	opt := DefaultOptions()
	opt.Mode = StopAndCopy
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DowntimeCycles != rep.TotalCycles {
		t.Errorf("stop-and-copy downtime %d != total %d", rep.DowntimeCycles, rep.TotalCycles)
	}
	verifyDestRuns(t, dst)
}

func TestPostCopyTinyDowntime(t *testing.T) {
	src, dst := pair(t, 64, 100)
	pre := DefaultOptions()
	preRep, err := Migrate(src, dst, pre)
	if err != nil {
		t.Fatal(err)
	}

	src2, dst2 := pair(t, 64, 100)
	post := DefaultOptions()
	post.Mode = PostCopy
	postRep, err := Migrate(src2, dst2, post)
	if err != nil {
		t.Fatal(err)
	}
	if postRep.DowntimeCycles >= preRep.DowntimeCycles {
		t.Errorf("post-copy downtime %d should undercut pre-copy %d",
			postRep.DowntimeCycles, preRep.DowntimeCycles)
	}
	// Destination runs with demand fetches.
	dst2.Step(100_000_000 / raceScale)
	if dst2.State == core.StateError {
		t.Fatalf("dest errored: %v", dst2.Err)
	}
	if postRep.RemoteFills == 0 && dst2.Stats.RemoteFills == 0 {
		t.Error("post-copy should demand-fetch pages")
	}
}

func TestPostCopyBackgroundPushCompletes(t *testing.T) {
	src, dst := pair(t, 32, 500)
	opt := DefaultOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 64
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dst.PageSource != nil {
		t.Error("push should complete and clear the demand hook")
	}
	if rep.BytesSent == 0 {
		t.Error("no bytes pushed")
	}
	verifyDestRuns(t, dst)
}

func TestLinkMath(t *testing.T) {
	l := Gbps(10, 50)
	// 10 Gb/s = 1.25 GB/s; a 4 KiB page ≈ 3.3 µs ≈ 3300 cycles.
	c := l.TxCycles(isa.PageSize)
	if c < 3000 || c > 3600 {
		t.Fatalf("page tx = %d cycles", c)
	}
	if l.RTTCycles != 50_000 {
		t.Fatalf("rtt = %d", l.RTTCycles)
	}
	if (Link{}).TxCycles(100) != 0 {
		t.Fatal("zero link should cost nothing")
	}
}

func TestPreCopyRoundsDecayGeometrically(t *testing.T) {
	// With dirty rate below link rate, each round's page count should
	// shrink (geometric decay) — the F8 shape.
	src, dst := pair(t, 128, 1500)
	opt := DefaultOptions()
	opt.StopThresholdPages = 4
	opt.MaxRounds = 12
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) < 3 {
		t.Skipf("converged too fast to observe decay: %+v", rep.Rounds)
	}
	// Compare the first iterative round with the last pre-final round.
	first := rep.Rounds[1].Pages
	last := rep.Rounds[len(rep.Rounds)-2].Pages
	if last > first {
		t.Errorf("rounds grew: %+v", rep.Rounds)
	}
}
