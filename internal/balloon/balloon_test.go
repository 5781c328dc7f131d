package balloon

import (
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/virtio"
)

func space(t *testing.T, pool *mem.Pool, pages uint64) *mem.GuestPhys {
	t.Helper()
	g := mem.NewGuestPhys(pool, pages*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPolicyNoPressureNoTargets(t *testing.T) {
	pool := mem.NewPool(256)
	g := space(t, pool, 64)
	p := DefaultPolicy()
	targets := p.Compute(pool, []*mem.GuestPhys{g})
	if targets[0].Pages != 0 {
		t.Fatalf("target = %d with a roomy pool", targets[0].Pages)
	}
}

func TestPolicyProportionalReclaim(t *testing.T) {
	pool := mem.NewPool(200)
	big := space(t, pool, 128)
	small := space(t, pool, 64)
	// Pool: 192 in use of 200 → free 8 < reserve 16.
	p := DefaultPolicy()
	targets := p.Compute(pool, []*mem.GuestPhys{big, small})
	if targets[0].Pages == 0 {
		t.Fatal("big VM should be asked to balloon")
	}
	// Proportional to resident-above-floor: big (96 above) vs small (32).
	if targets[0].Pages <= targets[1].Pages {
		t.Fatalf("targets big=%d small=%d", targets[0].Pages, targets[1].Pages)
	}
}

func TestPolicyRespectsFloor(t *testing.T) {
	pool := mem.NewPool(40)
	g := space(t, pool, 40) // pool fully consumed
	p := Policy{ReserveFrames: 64, FloorPages: 32}
	targets := p.Compute(pool, []*mem.GuestPhys{g})
	// Only 8 pages sit above the floor; the target must not exceed that.
	if targets[0].Pages > 8 {
		t.Fatalf("target %d exceeds reclaimable", targets[0].Pages)
	}
}

func TestControllerRebalancePushesTargets(t *testing.T) {
	pool := mem.NewPool(80)
	g := space(t, pool, 72)
	bal := virtio.NewBalloon(nopOps{})
	ctl := &Controller{
		Policy: DefaultPolicy(), Pool: pool,
		Balloons: []*virtio.Balloon{bal},
		Spaces:   []*mem.GuestPhys{g},
	}
	ctl.Rebalance()
	if bal.Target() == 0 {
		t.Fatal("no target pushed under pressure")
	}
	if ctl.Adjustments != 1 {
		t.Fatalf("adjustments = %d", ctl.Adjustments)
	}
	// Unchanged target ⇒ no duplicate adjustment.
	ctl.Rebalance()
	if ctl.Adjustments != 1 {
		t.Fatalf("adjustments after stable rebalance = %d", ctl.Adjustments)
	}
}

type nopOps struct{}

func (nopOps) ReclaimPage(uint64) bool { return true }
func (nopOps) ReturnPage(uint64)       {}

func TestReclaimOnePrefersClean(t *testing.T) {
	pool := mem.NewPool(64)
	g := space(t, pool, 16)
	// Dirty the high pages; leave page 3 clean.
	for gfn := uint64(4); gfn < 16; gfn++ {
		g.WriteUint(gfn*isa.PageSize, 8, 1)
	}
	ctl := &Controller{Policy: DefaultPolicy(), Pool: pool, Spaces: []*mem.GuestPhys{g}}
	if !ctl.ReclaimOne() {
		t.Fatal("nothing reclaimed")
	}
	// A clean page must have been chosen (one of 0..3).
	clean := 0
	for gfn := uint64(0); gfn < 4; gfn++ {
		if g.Frame(gfn) != mem.NoFrame {
			clean++
		}
	}
	if clean == 4 {
		t.Fatal("reclaimed a dirty page despite clean candidates")
	}
}

func TestReclaimOneSkipsProtectedAndEmpty(t *testing.T) {
	pool := mem.NewPool(64)
	g := mem.NewGuestPhys(pool, 4*isa.PageSize)
	ctl := &Controller{Spaces: []*mem.GuestPhys{g}}
	if ctl.ReclaimOne() {
		t.Fatal("reclaimed from an empty space")
	}
	g.Populate(1)
	g.WriteProtect(1, true)
	if ctl.ReclaimOne() {
		t.Fatal("reclaimed a write-protected page")
	}
}

// TestSwapZeroPageKeepsNoCopy: a zero page swaps out into the shared zero
// slot, not a 4 KiB copy, and swaps back in as a lazily zero frame; a
// non-zero page beside it keeps its own copy and its bytes.
func TestSwapZeroPageKeepsNoCopy(t *testing.T) {
	pool := mem.NewPool(64)
	g := space(t, pool, 4)
	g.WriteUint(1*isa.PageSize, 8, 0xDEAD)
	g.WriteUint(2*isa.PageSize, 8, 0xDEAD)
	g.WriteUint(2*isa.PageSize, 8, 0) // an array, cleared in place
	s := NewSwapper()
	for gfn := uint64(0); gfn < 3; gfn++ {
		s.SwapOut(g, gfn)
	}
	for _, gfn := range []uint64{0, 2} {
		if &s.store[g][gfn][0] != &zeroPage[0] {
			t.Errorf("zero page %d: swap slot holds its own buffer", gfn)
		}
	}
	if &s.store[g][1][0] == &zeroPage[0] {
		t.Fatal("non-zero page 1 swapped out as zeros")
	}

	src := s.Source(g)
	for gfn := uint64(0); gfn < 3; gfn++ {
		page, ok := src(gfn)
		if !ok {
			t.Fatalf("page %d: no swap slot", gfn)
		}
		if err := g.WriteRaw(gfn, page); err != nil {
			t.Fatal(err)
		}
	}
	for gfn, want := range []uint64{0, 0xDEAD, 0} {
		got, err := g.ReadUint(uint64(gfn)*isa.PageSize, 8)
		if err != nil || got != uint64(want) {
			t.Errorf("page %d: read %#x (%v), want %#x", gfn, got, err, want)
		}
		if data := pool.Data(g.Frame(uint64(gfn))); (data == nil) != (want == 0) {
			t.Errorf("page %d: frame has an array %v after swap-in", gfn, data != nil)
		}
	}
	if !mem.IsZeroPage(zeroPage) {
		t.Fatal("the shared zero page was written")
	}
	if s.SwapOuts != 3 || s.SwapIns != 3 {
		t.Fatalf("SwapOuts %d SwapIns %d, want 3 and 3", s.SwapOuts, s.SwapIns)
	}
}
