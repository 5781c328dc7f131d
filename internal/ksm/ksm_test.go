package ksm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

func newVMSpace(t *testing.T, pool *mem.Pool, pages uint64) *mem.GuestPhys {
	t.Helper()
	g := mem.NewGuestPhys(pool, pages*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	return g
}

func fillPage(g *mem.GuestPhys, gfn uint64, fill byte) {
	buf := make([]byte, isa.PageSize)
	for i := range buf {
		buf[i] = fill
	}
	g.WriteRaw(gfn, buf)
}

func TestScanMergesIdenticalAcrossVMs(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 8)
	b := newVMSpace(t, pool, 8)
	// Same "image" content in both VMs.
	for gfn := uint64(0); gfn < 4; gfn++ {
		fillPage(a, gfn, byte(gfn+1))
		fillPage(b, gfn, byte(gfn+1))
	}
	// Distinct content elsewhere.
	fillPage(a, 5, 0xAA)
	fillPage(b, 5, 0xBB)

	before := pool.InUse()
	s := NewScanner(pool)
	freed := s.ScanAll([]*mem.GuestPhys{a, b})
	if freed == 0 {
		t.Fatal("no frames freed")
	}
	if pool.InUse() >= before {
		t.Fatal("pool usage did not drop")
	}
	// The 4 identical pages + zero pages merge; distinct pages must not.
	if a.Frame(5) == b.Frame(5) {
		t.Fatal("distinct pages merged")
	}
	for gfn := uint64(0); gfn < 4; gfn++ {
		if a.Frame(gfn) != b.Frame(gfn) {
			t.Fatalf("identical page %d not merged", gfn)
		}
		if !b.IsCOW(gfn) || !a.IsCOW(gfn) {
			t.Fatalf("merged page %d not COW on both sides", gfn)
		}
	}
}

func TestMergedPageSplitsOnWrite(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 4)
	b := newVMSpace(t, pool, 4)
	fillPage(a, 0, 0x42)
	fillPage(b, 0, 0x42)
	s := NewScanner(pool)
	s.ScanAll([]*mem.GuestPhys{a, b})
	if a.Frame(0) != b.Frame(0) {
		t.Fatal("pages should be merged")
	}
	// Guest B writes: COW break isolates it.
	if f := b.WriteUint(0, 8, 0xDEAD); f != nil {
		t.Fatal(f)
	}
	if a.Frame(0) == b.Frame(0) {
		t.Fatal("write did not split the shared frame")
	}
	va, _ := a.ReadUint(0, 8)
	vb, _ := b.ReadUint(0, 8)
	if va == vb {
		t.Fatal("contents should now differ")
	}
	if va != 0x4242424242424242 {
		t.Fatalf("a content corrupted: %#x", va)
	}
}

// TestMergeObservedThroughWriteMemo: a scan merging pages whose owners hold
// warm write-memo entries must be observed by the memoized store path — the
// canonical side's COW flip happens in place (no remap, no version bump), so
// only the write-epoch invalidation stands between a warm memo and
// scribbling on the shared frame.
func TestMergeObservedThroughWriteMemo(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 8)
	b := newVMSpace(t, pool, 8)
	fillPage(a, 2, 0x5A)
	fillPage(b, 2, 0x5A)

	// Warm both sides' memos on the page that is about to merge.
	for _, g := range []*mem.GuestPhys{a, b} {
		for i := uint64(0); i < 4; i++ {
			if f := g.WriteUintMemo(2*isa.PageSize+i*8, 8, 0x5A5A); f != nil {
				t.Fatal(f)
			}
		}
	}
	if a.WMemoHits == 0 || b.WMemoHits == 0 {
		t.Fatal("memo never engaged before the merge — vacuous test")
	}

	s := NewScanner(pool)
	s.ScanVM(a)
	s.ScanVM(b)
	if s.Stats.PagesMerged == 0 {
		t.Fatal("scan merged nothing")
	}
	if a.Frame(2) != b.Frame(2) {
		t.Fatal("pages not sharing one frame after merge")
	}

	// Post-merge stores through the warm memos must COW-split, not leak.
	if f := a.WriteUintMemo(2*isa.PageSize, 8, 0xA11A); f != nil {
		t.Fatal(f)
	}
	if a.Frame(2) == b.Frame(2) {
		t.Fatal("store through warm memo did not split the merged frame")
	}
	va, _ := a.ReadUint(2*isa.PageSize, 8)
	vb, _ := b.ReadUint(2*isa.PageSize, 8)
	if va != 0xA11A {
		t.Fatalf("writer reads %#x, want 0xA11A", va)
	}
	if vb != 0x5A5A {
		t.Fatalf("sharer reads %#x — the memoized store leaked through the merge", vb)
	}
}

func TestZeroPagesMerge(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 8)
	b := newVMSpace(t, pool, 8)
	// All pages zero (never written): one scan should collapse most frames.
	s := NewScanner(pool)
	before := pool.InUse()
	s.ScanAll([]*mem.GuestPhys{a, b})
	if pool.InUse() >= before {
		t.Fatalf("zero pages not merged: %d → %d", before, pool.InUse())
	}
	if s.Stats.ZeroPages == 0 {
		t.Fatal("zero page counter")
	}
}

func TestScanSkipsWriteProtectedPages(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 4)
	b := newVMSpace(t, pool, 4)
	fillPage(a, 1, 7)
	fillPage(b, 1, 7)
	a.WriteProtect(1, true) // a page-table page: must not merge
	s := NewScanner(pool)
	s.ScanAll([]*mem.GuestPhys{a, b})
	if a.Frame(1) == b.Frame(1) {
		t.Fatal("write-protected page merged")
	}
}

func TestRepeatedScansIdempotent(t *testing.T) {
	pool := mem.NewPool(64)
	a := newVMSpace(t, pool, 8)
	b := newVMSpace(t, pool, 8)
	for gfn := uint64(0); gfn < 8; gfn++ {
		fillPage(a, gfn, 9)
		fillPage(b, gfn, 9)
	}
	s := NewScanner(pool)
	s.ScanAll([]*mem.GuestPhys{a, b})
	inUse := pool.InUse()
	s.ScanAll([]*mem.GuestPhys{a, b})
	if pool.InUse() != inUse {
		t.Fatalf("second scan changed usage: %d → %d", inUse, pool.InUse())
	}
}

func TestSavingsScaleWithVMCount(t *testing.T) {
	pool := mem.NewPool(1024)
	var spaces []*mem.GuestPhys
	const pages = 16
	for i := 0; i < 8; i++ {
		g := newVMSpace(t, pool, pages)
		for gfn := uint64(0); gfn < pages; gfn++ {
			fillPage(g, gfn, byte(gfn)) // same image everywhere
		}
		spaces = append(spaces, g)
	}
	s := NewScanner(pool)
	s.ScanAll(spaces)
	// 8 VMs × 16 pages = 128 frames; after dedup ~16 remain.
	if pool.InUse() > 2*pages {
		t.Fatalf("in use after dedup = %d", pool.InUse())
	}
}

// TestStaleCanonOwnerAfterFrameReuse: canon entries outlive passes, so the
// recorded owner may have unmapped its page and the pool may have handed the
// same frame to another VM since. A later pass that merges a third VM onto
// that frame must not trust the stale owner: MarkCOWIfMapped no-ops on it,
// the frame's real owner stays writable, and its stores land in the other
// guest's page.
func TestStaleCanonOwnerAfterFrameReuse(t *testing.T) {
	pool := mem.NewPool(64)
	owner := newVMSpace(t, pool, 4)
	reuser := mem.NewGuestPhys(pool, 4*isa.PageSize) // populated below, after the free
	victim := newVMSpace(t, pool, 4)

	// Pass 1 records (frame, owner, gfn 1) as the canonical 0x77 page.
	fillPage(owner, 1, 0x77)
	s := NewScanner(pool)
	s.ScanVM(owner)
	frame := owner.Frame(1)

	// The owner balloons the page out; the pool reuses the frame for another
	// VM, which happens to hold the same content.
	owner.Unmap(1)
	var gfn uint64
	for gfn = 0; gfn < reuser.Pages(); gfn++ {
		if err := reuser.Populate(gfn); err != nil {
			t.Fatal(err)
		}
		if reuser.Frame(gfn) == frame {
			break
		}
	}
	if gfn == reuser.Pages() {
		t.Fatal("pool never reused the freed frame — the test lost its premise")
	}
	fillPage(reuser, gfn, 0x77)
	if reuser.Frame(gfn) != frame {
		t.Fatal("refill moved the page off the reused frame")
	}

	// Pass 2 finds the victim's identical page.
	fillPage(victim, 2, 0x77)
	s.ScanVM(victim)

	// Whatever the scanner decided, a store by the frame's real owner must
	// stay in its own page.
	if f := reuser.WriteUint(gfn<<isa.PageShift, 8, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	if got, f := victim.ReadUint(2<<isa.PageShift, 8); f != nil || got != 0x7777777777777777 {
		t.Fatalf("victim reads %#x (fault %v) after another VM's store: cross-VM corruption", got, f)
	}
}

// TestKeptScannerSkipsRecycledCanonFrame: the pool recycles both frame
// numbers and their backing arrays, so a canon entry kept by a long-lived
// scanner can name a frame that now holds another VM's page, in the very
// array the canonical page used to live in. The second pass must see that
// the recorded owner no longer maps the frame, and must not merge onto it;
// no page's content may change.
func TestKeptScannerSkipsRecycledCanonFrame(t *testing.T) {
	pool := mem.NewPool(64) // one shard: frame numbers and arrays come back LIFO
	owner := newVMSpace(t, pool, 4)
	fillPage(owner, 1, 0x77)
	s := NewScanner(pool)
	s.ScanVM(owner) // records (frame, owner, gfn 1) as the canonical 0x77 page
	frame := owner.Frame(1)
	array := &pool.Data(frame)[0]

	// Between the passes the owner balloons the page out, and another VM
	// gets the frame number and its array back for the same content.
	owner.Unmap(1)
	reuser := mem.NewGuestPhys(pool, 4*isa.PageSize)
	if err := reuser.Populate(0); err != nil {
		t.Fatal(err)
	}
	fillPage(reuser, 0, 0x77)
	if reuser.Frame(0) != frame || &pool.Data(frame)[0] != array {
		t.Fatal("the pool did not hand the freed frame and its array to the next VM — the test lost its premise")
	}
	victim := newVMSpace(t, pool, 4)
	fillPage(victim, 2, 0x77)

	spaces := []*mem.GuestPhys{owner, reuser, victim}
	before := make([][]byte, 0, 12)
	for _, g := range spaces {
		for gfn := uint64(0); gfn < g.Pages(); gfn++ {
			buf := make([]byte, isa.PageSize)
			g.ReadRaw(gfn, buf)
			before = append(before, buf)
		}
	}

	s.ScanVM(victim)
	if victim.Frame(2) == frame || pool.RefCount(frame) != 1 || reuser.IsCOW(0) {
		t.Fatalf("second pass merged onto the recycled frame %d (victim maps %d, refcount %d)",
			frame, victim.Frame(2), pool.RefCount(frame))
	}
	buf := make([]byte, isa.PageSize)
	i := 0
	for _, g := range spaces {
		for gfn := uint64(0); gfn < g.Pages(); gfn++ {
			g.ReadRaw(gfn, buf)
			if !bytes.Equal(buf, before[i]) {
				t.Fatalf("page %d of space %d changed across the scan", gfn, i/4)
			}
			i++
		}
	}
	// The frame's real owner stays private: its store lands in its page only.
	if f := reuser.WriteUint(0, 8, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	if got, f := victim.ReadUint(2<<isa.PageShift, 8); f != nil || got != 0x7777777777777777 {
		t.Fatalf("victim reads %#x (fault %v) after another VM's store", got, f)
	}
}

// TestKeptScannerCanonStaysBounded: a scanner kept across passes over a
// guest that rewrites every page with new content between passes must
// not remember the old contents. After every pass the canonical map holds
// at most the pages scanned plus the shared frames.
func TestKeptScannerCanonStaysBounded(t *testing.T) {
	const pages = 16
	pool := mem.NewPool(128)
	churn := newVMSpace(t, pool, pages)
	// Two stable spaces with one image: their merged frames stay shared
	// across every pass.
	b, c := newVMSpace(t, pool, pages), newVMSpace(t, pool, pages)
	for gfn := uint64(0); gfn < pages; gfn++ {
		fillPage(b, gfn, byte(gfn+1))
		fillPage(c, gfn, byte(gfn+1))
	}
	spaces := []*mem.GuestPhys{churn, b, c}
	s := NewScanner(pool)
	buf := make([]byte, isa.PageSize)
	for pass := uint64(0); pass < 20; pass++ {
		for gfn := uint64(0); gfn < pages; gfn++ {
			binary.LittleEndian.PutUint64(buf, pass<<32|gfn+1) // content no pass has seen
			churn.WriteRaw(gfn, buf)
		}
		s.ScanAll(spaces)
		shared := map[uint64]bool{}
		for _, g := range spaces {
			for gfn := uint64(0); gfn < pages; gfn++ {
				if hfn := g.Frame(gfn); pool.Shared(hfn) {
					shared[hfn] = true
				}
			}
		}
		if len(shared) != pages {
			t.Fatalf("pass %d: %d shared frames, want the stable image's %d", pass, len(shared), pages)
		}
		if limit := len(spaces)*pages + len(shared); len(s.canon) > limit {
			t.Fatalf("pass %d: canon holds %d entries, more than %d pages + %d shared frames",
				pass, len(s.canon), len(spaces)*pages, len(shared))
		}
	}
}
