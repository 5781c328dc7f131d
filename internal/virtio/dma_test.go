package virtio

import (
	"bytes"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// TestPushHonoursWriteProtect: the used ring obeys write-protection like
// data DMA. A guest that places its used ring on a write-protected page (a
// shadow-tracked or pinned page-table page) gets its completion dropped;
// the device must not rewrite the page behind the VMM's back.
func TestPushHonoursWriteProtect(t *testing.T) {
	g := newGuest(t, 16)
	var q Queue
	const desc, avail, used = 0x1000, 0x1100, 0x2000
	if err := q.Configure(g, 4, desc, avail, used); err != nil {
		t.Fatal(err)
	}
	var availIdx uint16
	writeDesc(g, desc, 0, 0x8000, 16, 0, 0)
	postChain(g, avail, &availIdx, 0, 4)
	ch, ok := q.Pop()
	if !ok {
		t.Fatal("pop")
	}
	g.WriteProtect(used>>isa.PageShift, true)
	before := make([]byte, isa.PageSize)
	g.ReadRaw(used>>isa.PageShift, before)
	v := g.PageVersion(used >> isa.PageShift)

	q.Push(ch.Head, 16)

	after := make([]byte, isa.PageSize)
	g.ReadRaw(used>>isa.PageShift, after)
	if !bytes.Equal(before, after) || g.PageVersion(used>>isa.PageShift) != v {
		t.Fatal("Push wrote a write-protected used ring")
	}
}

// TestWriteToKeepsCPUWriteMemo: device DMA leaves the CPU's write memo
// alone. A device write into page b must not evict the entry of page a,
// which shares its direct-mapped slot, so the CPU's next store to a hits.
func TestWriteToKeepsCPUWriteMemo(t *testing.T) {
	g := newGuest(t, 32)
	q, _, _, _ := qSetup(t, g, 8)
	const a, b = 0x10, 0x18 // one write-memo slot
	if f := g.WriteUintMemo(a<<isa.PageShift, 8, 1); f != nil {
		t.Fatal(f)
	}
	if err := q.WriteTo(DescBuf{Addr: b << isa.PageShift, Len: 64, Device: true}, bytes.Repeat([]byte{0xD7}, 64)); err != nil {
		t.Fatal(err)
	}
	fills, hits := g.WMemoFills, g.WMemoHits
	if f := g.WriteUintMemo(a<<isa.PageShift+8, 8, 2); f != nil {
		t.Fatal(f)
	}
	if g.WMemoFills != fills || g.WMemoHits != hits+1 {
		t.Fatalf("store after DMA: fills %d → %d, hits %d → %d; the DMA evicted the CPU's entry",
			fills, g.WMemoFills, hits, g.WMemoHits)
	}
}

// TestWriteToZeroPageStaysLazy: a whole page of zeros written by a device
// into a lazily zero frame leaves the frame without a backing array, as a
// migrated zero run does.
func TestWriteToZeroPageStaysLazy(t *testing.T) {
	g := mem.NewGuestPhys(mem.NewPool(32), 16*isa.PageSize)
	q, _, _, _ := qSetup(t, g, 8)
	const gfn = 5
	if err := q.WriteTo(DescBuf{Addr: gfn << isa.PageShift, Len: isa.PageSize, Device: true}, make([]byte, isa.PageSize)); err != nil {
		t.Fatal(err)
	}
	hfn := g.Frame(gfn)
	if hfn == mem.NoFrame {
		t.Fatal("WriteTo did not populate the page")
	}
	if g.Pool().Data(hfn) != nil {
		t.Fatal("a whole-page zero DMA write materialized the frame")
	}
	if !g.Dirty(gfn) {
		t.Fatal("the DMA write did not dirty the page")
	}
}
