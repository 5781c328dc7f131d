package mem

import (
	"bytes"
	"testing"

	"govisor/internal/isa"
)

// TestZeroPageInstallStaysLazy: a whole page of zeros installed into a
// populated frame that has no backing array leaves it without one, yet
// the install is still a write — the page version and write epoch move —
// and the page reads as zeros. A later non-zero store materializes the
// frame as before.
func TestZeroPageInstallStaysLazy(t *testing.T) {
	g := newGP(t, 2, 4)
	if err := g.Populate(1); err != nil {
		t.Fatal(err)
	}
	hfn := g.Frame(1)
	ver, ep := g.PageVersion(1), g.WriteEpoch()
	if err := g.WriteRaw(1, make([]byte, isa.PageSize)); err != nil {
		t.Fatal(err)
	}
	if g.Frame(1) != hfn {
		t.Fatalf("zero install moved gfn 1 from frame %d to %d", hfn, g.Frame(1))
	}
	if g.Pool().Data(hfn) != nil {
		t.Fatal("zero install materialized a backing array")
	}
	if g.PageVersion(1) == ver || g.WriteEpoch() == ep {
		t.Fatal("zero install did not advance the page version and write epoch")
	}
	got := fullPage(0xEE)
	g.ReadRaw(1, got)
	if !bytes.Equal(got, make([]byte, isa.PageSize)) {
		t.Fatal("lazily zero page does not read as zeros")
	}
	// The same rule through a page-aligned plain write.
	if f := g.Write(1<<isa.PageShift, make([]byte, isa.PageSize)); f != nil {
		t.Fatal(f)
	}
	if g.Pool().Data(hfn) != nil {
		t.Fatal("page-aligned zero Write materialized a backing array")
	}

	if f := g.WriteUint(1<<isa.PageShift|64, 8, 0x0102030405060708); f != nil {
		t.Fatal(f)
	}
	if g.Pool().Data(hfn) == nil {
		t.Fatal("non-zero store left the frame without a backing array")
	}
	if v, f := g.ReadUint(1<<isa.PageShift|64, 8); f != nil || v != 0x0102030405060708 {
		t.Fatalf("store read back %#x (%v)", v, f)
	}
}

// TestZeroPageInstallClearsMaterialized: zeros installed over a frame
// with an array clear that array in place — stale content is gone, and the
// array stays where any memo may still point at it.
func TestZeroPageInstallClearsMaterialized(t *testing.T) {
	g := newGP(t, 2, 4)
	if err := g.WriteRaw(0, fullPage(0x5A)); err != nil {
		t.Fatal(err)
	}
	hfn := g.Frame(0)
	data := g.Pool().Data(hfn)
	if v, f := g.ReadUint(8, 8); f != nil || v != 0x5A5A5A5A5A5A5A5A {
		t.Fatalf("read %#x (%v) before the zero install", v, f)
	}
	if err := g.WriteRaw(0, make([]byte, isa.PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := g.Pool().Data(hfn); got == nil || &got[0] != &data[0] {
		t.Fatal("zero install over a materialized frame replaced its array")
	}
	if !IsZeroPage(data) {
		t.Fatal("zero install left stale bytes in the array")
	}
	if v, f := g.ReadUint(8, 8); f != nil || v != 0 {
		t.Fatalf("memoized read %#x (%v) after the zero install", v, f)
	}
}

// TestZeroPageInstallBreaksCOW: zeros installed over a KSM-shared page give
// the writer a private frame that reads as zeros; the sharer keeps its bytes.
func TestZeroPageInstallBreaksCOW(t *testing.T) {
	pool := NewPool(8)
	a := NewGuestPhys(pool, isa.PageSize)
	b := NewGuestPhys(pool, isa.PageSize)
	if err := a.WriteRaw(0, fullPage(0x3C)); err != nil {
		t.Fatal(err)
	}
	canon := a.Frame(0)
	pool.IncRef(canon)
	b.MapShared(0, canon)
	a.MarkCOWIfMapped(0, canon)

	if err := b.WriteRaw(0, make([]byte, isa.PageSize)); err != nil {
		t.Fatal(err)
	}
	if b.Frame(0) == canon || b.IsCOW(0) {
		t.Fatal("zero install over a shared frame did not break COW")
	}
	if pool.COWBreaks() != 1 || pool.RefCount(canon) != 1 {
		t.Fatalf("COWBreaks = %d, canonical refcount %d; want 1 and 1", pool.COWBreaks(), pool.RefCount(canon))
	}
	got := make([]byte, isa.PageSize)
	b.ReadRaw(0, got)
	if !IsZeroPage(got) {
		t.Fatal("writer does not read its zero install")
	}
	a.ReadRaw(0, got)
	if !bytes.Equal(got, fullPage(0x3C)) {
		t.Fatal("sharer lost its bytes to the writer's zero install")
	}
}

func TestIsZeroPage(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, isa.PageSize} {
		b := make([]byte, n)
		if !IsZeroPage(b) {
			t.Fatalf("%d zero bytes reported non-zero", n)
		}
		for i := range b {
			b[i] = 1
			if IsZeroPage(b) {
				t.Fatalf("%d bytes with byte %d set reported zero", n, i)
			}
			b[i] = 0
		}
	}
}
