package mem

import (
	"bytes"
	"sync/atomic"
	"testing"

	"govisor/internal/isa"
)

// newSpanSpace builds a space with every one of its pages populated.
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

// TestSpanReadWriteRoundTrip: DMA spans crossing pages round-trip through
// the plain Read and Write, and install no entry in the CPU's memos.
func TestSpanReadWriteRoundTrip(t *testing.T) {
	_, g := newSpanSpace(t, 8)
	// A span crossing three pages, unaligned on both ends.
	gpa := uint64(isa.PageSize - 100)
	msg := make([]byte, 2*isa.PageSize+200)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if f := g.Write(gpa, msg); f != nil {
		t.Fatal(f)
	}
	got := make([]byte, len(msg))
	if f := g.Read(gpa, got); f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("span round trip mismatch")
	}
	for gfn := uint64(0); gfn <= 2; gfn++ {
		if g.writeHot(gfn) || g.readHot(gfn) {
			t.Fatalf("page %d: write memo %v, read memo %v; DMA must leave both to the CPU", gfn, g.writeHot(gfn), g.readHot(gfn))
		}
	}
}

// TestSpanFaults: a span that runs off RAM, into a write-protected page or
// into an unmapped page stops at that page with its fault, and the pages
// before it were copied.
func TestSpanFaults(t *testing.T) {
	_, g := newSpanSpace(t, 4)
	buf := make([]byte, 64)
	for _, f := range []*Fault{g.Write(g.Size()-32, buf), g.Read(g.Size()-32, buf)} {
		if f == nil || f.Kind != FaultBeyondRAM || f.GPA != g.Size() {
			t.Fatalf("beyond-RAM span fault = %v", f)
		}
	}
	g.WriteProtect(2, true)
	span := bytes.Repeat([]byte{0xC3}, 2*isa.PageSize)
	f := g.Write(1<<isa.PageShift, span)
	if f == nil || f.Kind != FaultWriteProt || f.GPA != 2<<isa.PageShift {
		t.Fatalf("wprot span fault = %v", f)
	}
	page := make([]byte, isa.PageSize)
	g.ReadRaw(1, page)
	if !bytes.Equal(page, span[:isa.PageSize]) {
		t.Fatal("the page before the protected one was not written")
	}
	g.ReadRaw(2, page)
	if !bytes.Equal(page, make([]byte, isa.PageSize)) {
		t.Fatal("the write-protected page was written")
	}
	g.Unmap(3)
	if f := g.Read(2<<isa.PageShift, span); f == nil || f.Kind != FaultNotPresent || f.GPA != 3<<isa.PageShift {
		t.Fatalf("unmapped span read fault = %v", f)
	}
}

// TestSpanMemoInvalidationMatrix walks every event that must kill a CPU
// memo entry. Stores go through the write memo, whose entries die on every
// write-epoch bump; loads go through the read memo, whose entries die
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
			if f := g.WriteUintMemo(1<<isa.PageShift, 8, 0xAB); f != nil {
				t.Fatal(f)
			}
			if _, f := g.ReadUint(1<<isa.PageShift, 8); f != nil {
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

// TestSpanCOWWriteBreaks: a device write into a page that turned COW after
// the CPU memoized it breaks COW like any store; the CPU's next store follows
// it to the private copy, and the shared frame stays untouched.
func TestSpanCOWWriteBreaks(t *testing.T) {
	p := NewPool(16)
	a := NewGuestPhys(p, 4<<isa.PageShift)
	b := NewGuestPhys(p, 4<<isa.PageShift)
	if err := a.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{0x5A}, isa.PageSize)
	if f := a.Write(1<<isa.PageShift, content); f != nil {
		t.Fatal(f)
	}
	if f := a.WriteUintMemo(1<<isa.PageShift+64, 8, 0x5A5A5A5A5A5A5A5A); f != nil {
		t.Fatal(f)
	}
	if !a.writeHot(1) {
		t.Fatal("the store did not memoize the page")
	}
	// Share a's page into b (clone-style): both sides COW.
	hfn := a.Frame(1)
	p.IncRef(hfn)
	b.MapShared(1, hfn)
	a.MarkCOWIfMapped(1, hfn)

	if f := a.Write(1<<isa.PageShift, bytes.Repeat([]byte{0x11}, 64)); f != nil {
		t.Fatal(f)
	}
	if a.Frame(1) == hfn {
		t.Fatal("device write did not break COW")
	}
	if f := a.WriteUintMemo(1<<isa.PageShift+64, 8, 0x22); f != nil {
		t.Fatal(f)
	}
	if v, _ := a.ReadUint(1<<isa.PageShift+64, 8); v != 0x22 {
		t.Fatalf("store after the break read back %#x", v)
	}
	got := make([]byte, isa.PageSize)
	b.ReadRaw(1, got)
	if !bytes.Equal(got, content) {
		t.Fatal("shared frame corrupted through a stale memo entry")
	}
	if a.COWBreaks != 1 {
		t.Fatalf("COWBreaks = %d, want 1", a.COWBreaks)
	}
}

// TestSpanDMAAllocatesNothing: DMA and page copies stay off the Go heap,
// whether consecutive copies touch one page or alternate between two pages
// that share a memo slot.
func TestSpanDMAAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, g := newSpanSpace(t, 16)
	const a, b = 1, 1 + rmemoSlots        // same read-memo and write-memo slot
	span := make([]byte, isa.PageSize+64) // crosses into the next page
	page := make([]byte, isa.PageSize)
	at := func(gfn uint64) uint64 { return gfn<<isa.PageShift + 32 }
	for _, tc := range []struct {
		name string
		op   func(gfn uint64)
	}{
		{"Write", func(gfn uint64) {
			if f := g.Write(at(gfn), span); f != nil {
				t.Fatal(f)
			}
		}},
		{"Read", func(gfn uint64) {
			if f := g.Read(at(gfn), span); f != nil {
				t.Fatal(f)
			}
		}},
		{"ReadRaw", func(gfn uint64) { g.ReadRaw(gfn, page) }},
	} {
		tc.op(a) // warm: the pages are materialized
		tc.op(b)
		if got := testing.AllocsPerRun(100, func() { tc.op(a) }); got != 0 {
			t.Errorf("%s of one page: %v allocations per call", tc.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { tc.op(a); tc.op(b) }); got != 0 {
			t.Errorf("%s alternating: %v allocations per call", tc.name, got)
		}
	}
}
