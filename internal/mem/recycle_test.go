package mem

import (
	"testing"

	"govisor/internal/isa"
)

// fullPage returns a page of fill bytes.
func fullPage(fill byte) []byte {
	b := make([]byte, isa.PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

// TestCOWBreakAfterMergeDoesNotAllocate: in steady state a merge frees the
// victim's backing array and the next COW break of a page with content
// copies into that same array, so the pair costs no Go allocation.
func TestCOWBreakAfterMergeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	p := NewPoolSharded(16, 2)
	canon, _ := p.Alloc()
	victim, _ := p.Alloc()
	p.WriteAt(canon, 0, fullPage(0x5A))
	p.WriteAt(victim, 0, fullPage(0x5A))
	cycle := func() {
		p.ShareInto(canon, victim)
		nfn, err := p.BreakCOW(canon)
		if err != nil || nfn == canon {
			t.Fatalf("COW break of a shared frame gave %d, %v", nfn, err)
		}
		victim = nfn
	}
	cycle() // warm: the free list and the retire stack reach their size
	before := p.Recycled()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("merge + COW break: %v allocations per cycle", got)
	}
	if p.Recycled() == before {
		t.Fatal("the COW breaks never reused a retired array")
	}
	buf := make([]byte, isa.PageSize)
	p.ReadAt(victim, 0, buf)
	for i, v := range buf {
		if v != 0x5A {
			t.Fatalf("COW copy byte %d = %#x, want 0x5a", i, v)
		}
	}
}

// TestRetireStackCapCountsDrops: a shard keeps at most retireCap freed
// arrays; each one past that is dropped and counted.
func TestRetireStackCapCountsDrops(t *testing.T) {
	const extra = 5
	p := NewPoolSharded(retireCap+extra, 1)
	hfns := make([]uint64, 0, retireCap+extra)
	for i := 0; i < retireCap+extra; i++ {
		hfn, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		p.WriteAt(hfn, 0, []byte{1})
		hfns = append(hfns, hfn)
	}
	for _, hfn := range hfns {
		p.DecRef(hfn)
	}
	if got := len(p.shards[0].retired); got != retireCap {
		t.Fatalf("retire stack holds %d arrays, cap is %d", got, retireCap)
	}
	if p.RetireDrops() != extra {
		t.Fatalf("RetireDrops = %d, want %d", p.RetireDrops(), extra)
	}
	if p.Recycled() != 0 {
		t.Fatalf("Recycled = %d before any reuse", p.Recycled())
	}
}

// TestZeroFrameNeverRetired: freeing a logically-zero frame (no backing
// array) leaves the retire stacks untouched and counts no drop.
func TestZeroFrameNeverRetired(t *testing.T) {
	p := NewPoolSharded(8, 2)
	for i := 0; i < 8; i++ {
		hfn, _ := p.Alloc()
		buf := make([]byte, 8)
		p.ReadAt(hfn, 0, buf) // reading does not materialize
		p.DecRef(hfn)
	}
	for i := range p.shards {
		if n := len(p.shards[i].retired); n != 0 {
			t.Fatalf("shard %d retired %d arrays of zero frames", i, n)
		}
	}
	if p.RetireDrops() != 0 {
		t.Fatalf("RetireDrops = %d", p.RetireDrops())
	}
}

// TestPoppedArrayReadsZero: a frame materialized from a retired array by a
// partial write reads as zeros everywhere it was not written, whatever the
// array held before.
func TestPoppedArrayReadsZero(t *testing.T) {
	p := NewPoolSharded(4, 1)
	old, _ := p.Alloc()
	p.WriteAt(old, 0, fullPage(0xA5))
	p.DecRef(old)
	hfn, _ := p.Alloc()
	p.WriteAt(hfn, 100, []byte{7})
	if p.Recycled() != 1 {
		t.Fatalf("Recycled = %d, want 1", p.Recycled())
	}
	buf := make([]byte, isa.PageSize)
	p.ReadAt(hfn, 0, buf)
	for i, v := range buf {
		want := byte(0)
		if i == 100 {
			want = 7
		}
		if v != want {
			t.Fatalf("byte %d of a recycled frame = %#x, want %#x", i, v, want)
		}
	}

	// The same through a space: a first store after demand population.
	g := NewGuestPhys(p, isa.PageSize)
	p.WriteAt(hfn, 0, fullPage(0xC3))
	p.DecRef(hfn)
	if err := g.Populate(0); err != nil {
		t.Fatal(err)
	}
	if f := g.WriteUintMemo(8, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	if p.Recycled() != 2 {
		t.Fatalf("Recycled = %d, want 2", p.Recycled())
	}
	for off := uint64(0); off < isa.PageSize; off += 8 {
		want := uint64(0)
		if off == 8 {
			want = 0x1122334455667788
		}
		if v, f := g.ReadUint(off, 8); f != nil || v != want {
			t.Fatalf("offset %d of a recycled page = %#x (%v), want %#x", off, v, f, want)
		}
	}
}
