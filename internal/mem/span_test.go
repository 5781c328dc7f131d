package mem

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"govisor/internal/isa"
)

// newSpanSpace builds a populated 8-page space for the span tests.
func newSpanSpace(t *testing.T, pages uint64) (*Pool, *GuestPhys) {
	t.Helper()
	p := NewPool(pages * 4)
	g := NewGuestPhys(p, pages<<isa.PageShift)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	return p, g
}

// readHot and writeHot report whether the read / write memo currently holds
// a valid entry for gfn, without writeHit's arming side effect (white-box:
// the invalidation matrix asserts exactly which events kill which entries).
func (g *GuestPhys) readHot(gfn uint64) bool {
	_, ok := g.readHit(gfn)
	return ok
}

func (g *GuestPhys) writeHot(gfn uint64) bool {
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	return atomic.LoadUint64(&m.gfn) == gfn && atomic.LoadUint64(&m.epoch) == g.WriteEpoch()
}

func TestSpanReadWriteRoundTrip(t *testing.T) {
	_, g := newSpanSpace(t, 8)
	// A span crossing three pages, unaligned on both ends.
	gpa := uint64(isa.PageSize - 100)
	msg := make([]byte, 2*isa.PageSize+200)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if f := g.WriteSpan(gpa, msg); f != nil {
		t.Fatal(f)
	}
	got := make([]byte, len(msg))
	if f := g.ReadSpan(gpa, got); f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("span round trip mismatch")
	}
	// The same bytes must be visible through the unmemoized reference path.
	ref := make([]byte, len(msg))
	if f := g.Read(gpa, ref); f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(ref, msg) {
		t.Fatal("reference read disagrees with span write")
	}
	for gfn := uint64(0); gfn <= 2; gfn++ {
		if !g.writeHot(gfn) || !g.readHot(gfn) {
			t.Fatalf("page %d: write memo %v, read memo %v; want both memoized", gfn, g.writeHot(gfn), g.readHot(gfn))
		}
	}
}

func TestSpanFaultsMatchReference(t *testing.T) {
	_, g := newSpanSpace(t, 4)
	buf := make([]byte, 64)
	// Beyond RAM: both arms fault identically.
	f1 := g.WriteSpan(g.Size()-32, buf)
	f2 := g.Write(g.Size()-32, buf)
	if f1 == nil || f2 == nil || f1.Kind != f2.Kind {
		t.Fatalf("beyond-RAM: span %v vs ref %v", f1, f2)
	}
	// Write-protected page mid-span: the fault surfaces, and bytes before
	// the protected page land exactly as the reference arm would land them.
	g.WriteProtect(2, true)
	f1 = g.WriteSpan(1<<isa.PageShift, make([]byte, 2*isa.PageSize))
	if f1 == nil || f1.Kind != FaultWriteProt {
		t.Fatalf("wprot span fault = %v", f1)
	}
}

// TestSpanMemoInvalidationMatrix walks every event that must kill a DMA
// entry. Span writes go through the write memo, whose entries die on every
// write-epoch bump; span reads go through the read memo, whose entries die
// exactly when the page's content version moves — so an event that changes
// a write verdict but not the content (a protection flip, CollectDirty, a
// COW marking, a fill elsewhere) must leave the read entry alive.
func TestSpanMemoInvalidationMatrix(t *testing.T) {
	events := []struct {
		name     string
		prep     func(t *testing.T, p *Pool, g *GuestPhys)
		act      func(t *testing.T, p *Pool, g *GuestPhys)
		readDies bool
	}{
		{"WriteProtect", nil, func(t *testing.T, p *Pool, g *GuestPhys) { g.WriteProtect(1, true) }, false},
		{"Unprotect", func(t *testing.T, p *Pool, g *GuestPhys) { g.WriteProtect(1, true); g.WriteProtect(1, false) }, func(t *testing.T, p *Pool, g *GuestPhys) { g.WriteProtect(1, false) }, false},
		{"Unmap", nil, func(t *testing.T, p *Pool, g *GuestPhys) { g.Unmap(1) }, true},
		{"Remap", nil, func(t *testing.T, p *Pool, g *GuestPhys) {
			hfn, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			g.Map(1, hfn)
		}, true},
		{"CollectDirty", nil, func(t *testing.T, p *Pool, g *GuestPhys) { g.CollectDirty(nil) }, false},
		{"MarkCOWIfMapped", nil, func(t *testing.T, p *Pool, g *GuestPhys) { g.MarkCOWIfMapped(1, g.Frame(1)) }, false},
		{"WriteRaw", nil, func(t *testing.T, p *Pool, g *GuestPhys) {
			if err := g.WriteRaw(1, make([]byte, isa.PageSize)); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"PopulateElsewhere", func(t *testing.T, p *Pool, g *GuestPhys) { g.Unmap(3) }, func(t *testing.T, p *Pool, g *GuestPhys) {
			if err := g.Populate(3); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			p, g := newSpanSpace(t, 4)
			if ev.prep != nil {
				ev.prep(t, p, g)
			}
			seed := make([]byte, 128)
			for i := range seed {
				seed[i] = 0xAB
			}
			if f := g.WriteSpan(1<<isa.PageShift, seed); f != nil {
				t.Fatal(f)
			}
			if f := g.ReadSpan(1<<isa.PageShift, make([]byte, len(seed))); f != nil {
				t.Fatal(f)
			}
			if !g.writeHot(1) || !g.readHot(1) {
				t.Fatal("entries not installed")
			}
			ev.act(t, p, g)
			if g.writeHot(1) {
				t.Fatalf("%s left the write-memo entry valid", ev.name)
			}
			if got := !g.readHot(1); got != ev.readDies {
				t.Fatalf("%s: read-memo entry died = %v, want %v", ev.name, got, ev.readDies)
			}
		})
	}
}

// TestSpanCOWWriteBreaks: a memoized page that later turns COW must not
// serve a write hit — the write re-resolves, breaks COW and redirects
// to the private copy, leaving the shared frame untouched.
func TestSpanCOWWriteBreaks(t *testing.T) {
	p := NewPool(16)
	a := NewGuestPhys(p, 4<<isa.PageShift)
	b := NewGuestPhys(p, 4<<isa.PageShift)
	if err := a.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{0x5A}, isa.PageSize)
	if f := a.WriteSpan(1<<isa.PageShift, content); f != nil {
		t.Fatal(f)
	}
	// Share a's page into b (clone-style): both sides COW.
	hfn := a.Frame(1)
	p.IncRef(hfn)
	b.MapShared(1, hfn)
	a.MarkCOWIfMapped(1, hfn)

	// a's write-memo entry must be dead (epoch moved), and a write must
	// break COW instead of scribbling the shared frame.
	if f := a.WriteSpan(1<<isa.PageShift, bytes.Repeat([]byte{0x11}, 64)); f != nil {
		t.Fatal(f)
	}
	if a.Frame(1) == hfn {
		t.Fatal("write did not break COW")
	}
	got := make([]byte, 64)
	if f := b.ReadSpan(1<<isa.PageShift, got); f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(got, content[:64]) {
		t.Fatal("shared frame corrupted through a stale memo entry")
	}
	if a.COWBreaks != 1 {
		t.Fatalf("COWBreaks = %d, want 1", a.COWBreaks)
	}
}

// TestSpanReadRawMemoized: ReadRaw shares the read memo; a migration-style
// page stream installs entries, a repeat read of a stable page hits, and a
// guest store between reads moves the page version, so the next read
// re-resolves and sees it.
func TestSpanReadRawMemoized(t *testing.T) {
	_, g := newSpanSpace(t, 4)
	if f := g.Write(2<<isa.PageShift, []byte("round-one")); f != nil {
		t.Fatal(f)
	}
	buf := make([]byte, isa.PageSize)
	g.ReadRaw(2, buf)
	if string(buf[:9]) != "round-one" {
		t.Fatalf("ReadRaw = %q", buf[:9])
	}
	if !g.readHot(2) {
		t.Fatal("ReadRaw should install a read-memo entry")
	}
	g.ReadRaw(2, buf)
	if !g.readHot(2) || string(buf[:9]) != "round-one" {
		t.Fatalf("stable page: hot=%v content=%q", g.readHot(2), buf[:9])
	}
	if f := g.Write(2<<isa.PageShift, []byte("round-two")); f != nil {
		t.Fatal(f)
	}
	if g.readHot(2) {
		t.Fatal("a store must invalidate the page's read-memo entry")
	}
	g.ReadRaw(2, buf)
	if string(buf[:9]) != "round-two" {
		t.Fatalf("ReadRaw after store = %q", buf[:9])
	}
}

// TestSpanDifferentialVsReferenceDMA drives random span/page operations
// through a fast space and a reference-DMA space and demands byte-identical
// RAM, faults and dirty accounting.
func TestSpanDifferentialVsReferenceDMA(t *testing.T) {
	const pages = 8
	pf := NewPool(pages * 4)
	pr := NewPool(pages * 4)
	fast := NewGuestPhys(pf, pages<<isa.PageShift)
	ref := NewGuestPhys(pr, pages<<isa.PageShift)
	ref.SetReferenceDMA()
	for _, g := range []*GuestPhys{fast, ref} {
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	size := pages << isa.PageShift
	for i := 0; i < 4000; i++ {
		gpa := rng.Uint64() % uint64(size+isa.PageSize) // sometimes beyond RAM
		n := rng.Intn(3*isa.PageSize) + 1
		switch rng.Intn(5) {
		case 0, 1:
			buf := make([]byte, n)
			rng.Read(buf)
			f1 := fast.WriteSpan(gpa, buf)
			f2 := ref.WriteSpan(gpa, buf)
			if (f1 == nil) != (f2 == nil) || (f1 != nil && f1.Kind != f2.Kind) {
				t.Fatalf("op %d: write fault %v vs %v", i, f1, f2)
			}
		case 2, 3:
			b1 := make([]byte, n)
			b2 := make([]byte, n)
			f1 := fast.ReadSpan(gpa, b1)
			f2 := ref.ReadSpan(gpa, b2)
			if (f1 == nil) != (f2 == nil) || (f1 != nil && f1.Kind != f2.Kind) {
				t.Fatalf("op %d: read fault %v vs %v", i, f1, f2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("op %d: read divergence", i)
			}
		case 4:
			switch rng.Intn(4) {
			case 0:
				gfn := gpa >> isa.PageShift
				on := rng.Intn(2) == 0
				fast.WriteProtect(gfn, on)
				ref.WriteProtect(gfn, on)
			case 1:
				fast.CollectDirty(nil)
				ref.CollectDirty(nil)
			case 2:
				gfn := (gpa >> isa.PageShift) % pages
				fast.Unmap(gfn)
				ref.Unmap(gfn)
			case 3:
				gfn := (gpa >> isa.PageShift) % pages
				e1 := fast.Populate(gfn)
				e2 := ref.Populate(gfn)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: populate %v vs %v", i, e1, e2)
				}
			}
		}
	}
	// Final sweep: every page byte-identical, same dirty census.
	b1 := make([]byte, isa.PageSize)
	b2 := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < pages; gfn++ {
		fast.ReadRaw(gfn, b1)
		ref.ReadRaw(gfn, b2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("page %d diverged", gfn)
		}
		if fast.Dirty(gfn) != ref.Dirty(gfn) {
			t.Fatalf("page %d dirty bit diverged", gfn)
		}
	}
	if fast.DirtySets != ref.DirtySets {
		t.Fatalf("DirtySets %d vs %d", fast.DirtySets, ref.DirtySets)
	}
}

// TestSpanDMAAllocatesNothing: DMA through the shared memos stays off the Go
// heap on memo hits and misses alike. A miss is forced every call by
// alternating between two pages that share a direct-mapped slot.
func TestSpanDMAAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, g := newSpanSpace(t, 16)
	const a, b = 1, 1 + rmemoSlots // same read-memo and write-memo slot
	if rmemoSlots != wmemoSlots {
		t.Fatal("the slot-collision pages assume equal memo sizes")
	}
	span := make([]byte, isa.PageSize+64) // crosses into the next page
	page := make([]byte, isa.PageSize)
	at := func(gfn uint64) uint64 { return gfn<<isa.PageShift + 32 }
	for _, tc := range []struct {
		name string
		op   func(gfn uint64)
		hot  func(gfn uint64) bool // the memo the op goes through
	}{
		{"WriteSpan", func(gfn uint64) {
			if f := g.WriteSpan(at(gfn), span); f != nil {
				t.Fatal(f)
			}
		}, g.writeHot},
		{"ReadSpan", func(gfn uint64) {
			if f := g.ReadSpan(at(gfn), span); f != nil {
				t.Fatal(f)
			}
		}, g.readHot},
		{"ReadRaw", func(gfn uint64) { g.ReadRaw(gfn, page) }, g.readHot},
	} {
		tc.op(a) // warm: the page is memoized and materialized
		if got := testing.AllocsPerRun(100, func() { tc.op(a) }); got != 0 {
			t.Errorf("%s hit: %v allocations per call", tc.name, got)
		}
		tc.op(b)
		if !tc.hot(b) || tc.hot(a) {
			t.Fatalf("%s: pages %d and %d do not evict each other", tc.name, a, b)
		}
		if got := testing.AllocsPerRun(100, func() { tc.op(a); tc.op(b) }); got != 0 {
			t.Errorf("%s miss: %v allocations per call", tc.name, got)
		}
	}
}
