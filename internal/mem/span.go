package mem

import (
	"sync/atomic"

	"govisor/internal/isa"
)

// spanSlots is the span memo's direct-mapped size. Device DMA streams a
// handful of ring and buffer pages per queue; eight slots cover a virtio
// queue's descriptor table, avail/used rings and the active buffer pages.
const spanSlots = 8

// spanEntry caches one resolved DMA page. gfn == NoFrame marks an empty
// slot. epoch is the space's write epoch at install time: the entry is valid
// only while they still match, so every event that can change a resolve
// verdict — remaps, ballooning, COW creation and breaks, write-protect
// flips, CollectDirty — invalidates the whole memo at once, exactly like
// the write memo. writable records which resolver installed the entry: only
// a resolveWrite-vetted entry (page present, private, unprotected, dirty)
// may serve a write hit; a read-installed entry can cover a COW or
// write-protected page whose verdict never changed epoch since. data is the
// live backing array (never nil — logically-zero pages are not memoized), so
// a hit always sees current content: guest stores mutate the same array in
// place, and anything that swaps the array under the gfn bumps the epoch.
type spanEntry struct {
	gfn      uint64
	epoch    uint64
	writable bool
	data     []byte
}

// SetReferenceDMA pins this space's DMA to the reference arm: ReadSpan and
// WriteSpan resolve every page through the plain Read/Write paths and the
// span memo stays empty. Call it on a fresh space, before the first access;
// core.Config.Reference is the one caller outside the tests.
func (g *GuestPhys) SetReferenceDMA() { g.refDMA = true }

// ReadSpan copies len(buf) bytes from gpa, resolving each page at most once
// through the span memo: a valid entry proves the cached backing array still
// is what resolveRead + Pool.Data would produce (every content-moving event
// bumps the write epoch), so the hit path is a straight memcpy. Misses take
// the full resolve and install the page for the next DMA touching it. Reads
// have no guest-visible side effects, so nothing is replayed on a hit; the
// arm split is guest-invisible by construction and the differential suites
// prove it.
//
//govisor:pair Read
func (g *GuestPhys) ReadSpan(gpa uint64, buf []byte) *Fault {
	if g.refDMA {
		return g.Read(gpa, buf)
	}
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		gfn := gpa >> isa.PageShift
		e := &g.smemo[gfn&(spanSlots-1)]
		if e.gfn == gfn && e.epoch == atomic.LoadUint64(&g.wepoch) {
			copy(buf[:n], e.data[off:])
		} else {
			hfn, f := g.resolveRead(gpa, isa.AccRead)
			if f != nil {
				return f
			}
			if data := g.pool.Data(hfn); data != nil {
				copy(buf[:n], data[off:])
				*e = spanEntry{gfn: gfn, epoch: atomic.LoadUint64(&g.wepoch), data: data}
			} else {
				// Logically-zero frame: materializing it for a read would
				// defeat the pool's zero-page economics, and memoizing nil
				// would need a nil check on every hit. Serve zeros, skip
				// the memo.
				for i := range buf[:n] {
					buf[i] = 0
				}
			}
		}
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// WriteSpan copies buf to gpa through the span memo. A write hit requires a
// writable entry: resolveWrite vetted the page at install time (present,
// unprotected, private, dirty) and an unchanged epoch proves every one of
// those verdicts still stands — each contrary event bumps it — so the hit
// skips the per-page bitmap tests and writes the cached array directly,
// bumping the page's content version exactly as resolveWrite would. Misses
// run resolveWrite in full (COW breaks, dirty accounting, fault surfacing
// included) and install the vetted page.
//
//govisor:pair Write
func (g *GuestPhys) WriteSpan(gpa uint64, buf []byte) *Fault {
	if g.refDMA {
		return g.Write(gpa, buf)
	}
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		gfn := gpa >> isa.PageShift
		e := &g.smemo[gfn&(spanSlots-1)]
		if e.gfn == gfn && e.writable && e.epoch == atomic.LoadUint64(&g.wepoch) {
			g.bumpVersion(gfn)
			copy(e.data[off:], buf[:n])
		} else {
			hfn, f := g.resolveWrite(gpa)
			if f != nil {
				return f
			}
			data := g.pool.writable(hfn)
			copy(data[off:], buf[:n])
			// Epoch read after resolveWrite: a COW break in the resolve
			// bumps it, and the entry must be valid for the frame the break
			// installed, not the shared one it replaced.
			*e = spanEntry{gfn: gfn, epoch: atomic.LoadUint64(&g.wepoch), writable: true, data: data}
		}
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}
