package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"govisor/internal/isa"
)

// FaultKind classifies guest-physical access failures that escalate to the
// VMM (the software analogue of an EPT violation / host page fault).
type FaultKind uint8

// Guest-physical fault kinds.
const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // gfn has no host frame (demand page, ballooned out, post-copy)
	FaultWriteProt            // page is write-protected by the VMM (shadow PT tracking, dirty logging)
	FaultBeyondRAM            // gpa outside guest RAM and outside any MMIO window
)

// Fault describes a guest-physical access failure.
type Fault struct {
	Kind   FaultKind
	GPA    uint64
	Access isa.Access
}

// Error implements error for plumbing through test helpers.
func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %v fault at gpa %#x (%v)", f.Kind, f.GPA, f.Access)
}

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultWriteProt:
		return "write-protect"
	case FaultBeyondRAM:
		return "beyond-ram"
	}
	return "fault?"
}

const wordsPerBitmap = 64

// GuestPhys is one VM's guest-physical address space: a gfn → hfn mapping
// over the host pool, with per-page state used by the VMM's memory services:
//
//   - dirty bits (live migration, incremental snapshots)
//   - write-protect bits (shadow page-table coherence; pre-copy rounds)
//   - COW bits (pages shared with other VMs by dedup or cloning)
type GuestPhys struct {
	pool   *Pool
	npages uint64
	hfn    []uint64 // NoFrame when unmapped

	dirty   []uint64 // bitmaps, one bit per gfn
	wprot   []uint64
	cow     []uint64
	pinned  []uint64
	present uint64 // count of mapped pages

	// ver holds one content-version counter per page, bumped by every event
	// that can change what a read of the page returns: guest stores,
	// privileged VMM writes, demand population, ballooning unmap, migration
	// page copies, and remaps from dedup or cloning. Caches of derived page
	// content (the vCPU's decoded-instruction cache) validate with a single
	// compare against PageVersion instead of registering callbacks. Counters
	// are accessed atomically so a version observer on another goroutine
	// (a concurrent cache validation, a scanner probing for stability) never
	// races the owning VM's writes; everything else in GuestPhys remains
	// single-owner — one goroutine at a time, with cross-VM services
	// confined to epoch barriers.
	ver []uint64

	// hint is the preferred pool shard for this space's allocations; hosts
	// assign each VM a distinct hint so concurrent demand fills mostly stay
	// off each other's locks.
	hint int

	// rmemo is the read fast path: a tiny direct-mapped cache of resolved
	// readable page slices, validated per access against the page's content
	// version. Every event that could change what a read returns (stores,
	// unmap, remap, demand fill, COW break, migration copies) bumps the
	// version, so a hit proves the cached slice still is what resolveRead +
	// Pool.Data would produce — the fast path is exact, it only skips host
	// work. Reads have no guest-visible side effects (no stats, no dirty
	// bits), so nothing needs replaying on a hit.
	rmemo [rmemoSlots]readMemo

	// wmemo is the write fast path: a direct-mapped cache of resolveWrite
	// verdicts. A valid entry proves the page is present, not write-
	// protected, not copy-on-write, and already dirty, so a memoized store
	// skips every per-store bitmap test and writes the cached backing array
	// directly. Validity is guarded by wepoch, the write-epoch counter:
	// every event that can change a write verdict — CollectDirty clearing
	// dirty bits, write-protect flips, COW creation (dedup merges, clone
	// sharing) and breaks, map/unmap/populate remaps, migration restores —
	// bumps the epoch and thereby invalidates every entry at once. See
	// writeHit for the per-store version-bump coalescing the memo layers on
	// top.
	//
	// Device DMA and page copies (Read, Write, ReadRaw) bypass both memos:
	// a bulk copy evicts none of the CPU's entries.
	wmemo  [wmemoSlots]writeMemo
	wepoch uint64 // write-epoch counter (atomic)

	// Stats visible to experiments.
	DirtySets   uint64 // writes that newly dirtied a page
	COWBreaks   uint64
	DemandFills uint64

	// Host-side write-memo telemetry. Like the icache counters these have
	// no guest-visible meaning: no simulated statistic may depend on them.
	WMemoHits  uint64 // stores served by the memoized fast path
	WMemoFills uint64 // memo entries (re)installed by the slow path
}

// rmemoSlots is the read fast path's direct-mapped size; straight-line
// loops stream a handful of pages, the rest stay on the full path.
const rmemoSlots = 8

// readMemo caches one resolved readable page. data == nil means the page is
// present but logically zero (an unmaterialized frame). gfn == NoFrame marks
// an empty slot, so a zero-value memo can never falsely match gfn 0.
type readMemo struct {
	gfn  uint64
	ver  uint64
	data []byte
}

// wmemoSlots is the write fast path's direct-mapped size, matching the read
// memo: store bursts stream a handful of destination pages.
const wmemoSlots = 8

// writeMemo caches one resolved writable page. gfn is NoFrame while the slot
// is empty. gfn, epoch and armed are published atomically: a concurrent
// version observer (PageVersion on another goroutine) reads gfn and armed to
// find the slot's page, while only the owning VM's goroutine fills it. epoch
// is the space's write epoch at fill time — the entry is valid only while
// they still match. armed is the version-coalescing state: 1 means a version
// bump covering every memoized store since the last observation of the
// page's version is already in place, so further memoized stores need not
// bump again; PageVersion clears it, forcing the next store to bump (and
// thereby keeps the "same version ⇒ unchanged content between the two
// observations" contract exact). data is the materialized writable backing
// array — never nil, because the fill path materializes the frame.
type writeMemo struct {
	gfn   uint64 // atomic
	epoch uint64 // atomic
	armed uint32 // atomic
	data  []byte
}

// NewGuestPhys creates an address space of size bytes (rounded up to pages)
// over pool. No pages are populated; callers either PopulateAll (eager) or
// let not-present faults drive demand population.
func NewGuestPhys(pool *Pool, size uint64) *GuestPhys {
	np := isa.PageRoundUp(size) >> isa.PageShift
	g := &GuestPhys{
		pool:   pool,
		npages: np,
		hfn:    make([]uint64, np),
		dirty:  make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		wprot:  make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		cow:    make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		pinned: make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		ver:    make([]uint64, np),
	}
	for i := range g.hfn {
		g.hfn[i] = NoFrame
	}
	for i := range g.rmemo {
		g.rmemo[i].gfn = NoFrame
	}
	for i := range g.wmemo {
		// Published atomically like every other wmemo.gfn store: a memo
		// probe may race with construction once the GuestPhys escapes.
		atomic.StoreUint64(&g.wmemo[i].gfn, NoFrame)
	}
	return g
}

// Pool returns the backing host pool.
func (g *GuestPhys) Pool() *Pool { return g.pool }

// Pages returns the number of guest-physical pages.
func (g *GuestPhys) Pages() uint64 { return g.npages }

// Size returns the RAM size in bytes.
func (g *GuestPhys) Size() uint64 { return g.npages << isa.PageShift }

// Present returns the number of currently mapped pages.
func (g *GuestPhys) Present() uint64 { return g.present }

// Contains reports whether gpa falls inside guest RAM.
func (g *GuestPhys) Contains(gpa uint64) bool { return gpa>>isa.PageShift < g.npages }

func bit(bm []uint64, i uint64) bool { return bm[i/wordsPerBitmap]&(1<<(i%wordsPerBitmap)) != 0 }
func setBit(bm []uint64, i uint64)   { bm[i/wordsPerBitmap] |= 1 << (i % wordsPerBitmap) }
func clearBit(bm []uint64, i uint64) { bm[i/wordsPerBitmap] &^= 1 << (i % wordsPerBitmap) }

// PageVersion returns the content-version counter of gfn. Any two calls that
// return the same value bracket a window in which the page's readable content
// (including its presence) did not change, so derived caches keyed on it stay
// coherent across self-modifying code, ballooning, dedup remaps, COW breaks
// and migration page copies without invalidation callbacks.
//
// Observing a version ends the page's memoized write burst (the armed flag is
// cleared), so the next memoized store bumps the version again: the
// bracketing contract holds exactly — even though stores between two
// observations share a single bump — for any observation ordered with the
// owning VM's stores, i.e. on the owning goroutine (the icache's per-fetch
// validation) or across an epoch barrier (scanners, migration). Both sides
// of the handshake are atomic, so unordered concurrent calls remain
// race-free, but they get only that: an observation racing an in-flight
// memoized store may miss it, so mid-epoch cross-goroutine probes must not
// rely on the bracketing contract (the single-owner discipline already
// confines cross-VM services to barriers).
func (g *GuestPhys) PageVersion(gfn uint64) uint64 {
	if gfn >= g.npages {
		return 0
	}
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	if atomic.LoadUint64(&m.gfn) == gfn && atomic.LoadUint32(&m.armed) != 0 {
		atomic.StoreUint32(&m.armed, 0)
	}
	return atomic.LoadUint64(&g.ver[gfn])
}

// bumpVersion invalidates derived caches of gfn's content. Callers guarantee
// gfn < npages.
func (g *GuestPhys) bumpVersion(gfn uint64) { atomic.AddUint64(&g.ver[gfn], 1) }

// bumpWriteEpoch invalidates every write-memo entry at once. Called by every
// event that can change a resolveWrite verdict; entries revalidate by
// comparing their fill-time epoch.
func (g *GuestPhys) bumpWriteEpoch() { atomic.AddUint64(&g.wepoch, 1) }

// WriteEpoch returns the current write-epoch counter. Exported for the
// invalidation tests and for concurrent observers probing stability; like
// PageVersion it is safe to call from any goroutine.
func (g *GuestPhys) WriteEpoch() uint64 { return atomic.LoadUint64(&g.wepoch) }

// SetAllocHint sets the preferred pool shard for this space's allocations.
func (g *GuestPhys) SetAllocHint(h int) { g.hint = h }

// Frame returns the host frame mapped at gfn, or NoFrame.
func (g *GuestPhys) Frame(gfn uint64) uint64 {
	if gfn >= g.npages {
		return NoFrame
	}
	return g.hfn[gfn]
}

// Map installs hfn at gfn, replacing (and releasing) any previous frame.
// The caller transfers its reference on hfn to the GuestPhys.
func (g *GuestPhys) Map(gfn, hfn uint64) {
	if gfn >= g.npages {
		panic(fmt.Sprintf("mem: Map gfn %d beyond %d", gfn, g.npages))
	}
	if old := g.hfn[gfn]; old != NoFrame {
		g.pool.DecRef(old)
	} else {
		g.present++
	}
	g.hfn[gfn] = hfn
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
}

// MapShared installs hfn at gfn as a shared, copy-on-write page. The caller
// transfers its reference.
func (g *GuestPhys) MapShared(gfn, hfn uint64) {
	g.Map(gfn, hfn)
	setBit(g.cow, gfn)
}

// MarkCOWIfMapped sets the copy-on-write bit on gfn if it still maps hfn.
// The dedup scanner uses it to flip the canonical side of a merge to COW
// without racing a concurrent remap. The content is unchanged (dedup merges
// only identical frames) so the page version stands, but the write verdict
// flips — the canonical owner's next store must break COW, so the write
// epoch must advance.
func (g *GuestPhys) MarkCOWIfMapped(gfn, hfn uint64) {
	if gfn < g.npages && g.hfn[gfn] == hfn {
		setBit(g.cow, gfn)
		g.bumpWriteEpoch()
	}
}

// Unmap removes the mapping at gfn, releasing the frame reference (the
// balloon path). Subsequent access faults with FaultNotPresent.
func (g *GuestPhys) Unmap(gfn uint64) {
	if gfn >= g.npages || g.hfn[gfn] == NoFrame {
		return
	}
	g.pool.DecRef(g.hfn[gfn])
	g.hfn[gfn] = NoFrame
	g.present--
	clearBit(g.cow, gfn)
	clearBit(g.wprot, gfn)
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
}

// Populate demand-allocates a zero frame at gfn if unmapped.
func (g *GuestPhys) Populate(gfn uint64) error {
	if gfn >= g.npages {
		return &Fault{Kind: FaultBeyondRAM, GPA: gfn << isa.PageShift}
	}
	if g.hfn[gfn] != NoFrame {
		return nil
	}
	hfn, err := g.pool.AllocNear(g.hint)
	if err != nil {
		return err
	}
	g.hfn[gfn] = hfn
	g.present++
	g.DemandFills++
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
	return nil
}

// PopulateAll eagerly maps every page (boot-time allocation).
func (g *GuestPhys) PopulateAll() error {
	for gfn := uint64(0); gfn < g.npages; gfn++ {
		if err := g.Populate(gfn); err != nil {
			return err
		}
	}
	return nil
}

// WriteProtect marks gfn so the next write faults with FaultWriteProt (used
// by the shadow-paging engine to track guest page-table pages, and by
// pre-copy migration for dirty logging with page-granularity cost). Either
// direction changes the write verdict, so the write epoch advances.
func (g *GuestPhys) WriteProtect(gfn uint64, on bool) {
	if gfn >= g.npages {
		return
	}
	if on {
		setBit(g.wprot, gfn)
	} else {
		clearBit(g.wprot, gfn)
	}
	g.bumpWriteEpoch()
}

// WriteProtected reports the write-protect bit of gfn.
func (g *GuestPhys) WriteProtected(gfn uint64) bool {
	return gfn < g.npages && bit(g.wprot, gfn)
}

// Pin marks gfn as non-reclaimable: reclaim and swap policies must skip it.
// The VMM pins pages whose eviction would fault recursively (page-table
// pages walked by the MMU, firmware/parameter pages).
func (g *GuestPhys) Pin(gfn uint64) {
	if gfn < g.npages {
		setBit(g.pinned, gfn)
	}
}

// Pinned reports whether gfn is exempt from reclaim.
func (g *GuestPhys) Pinned(gfn uint64) bool {
	return gfn < g.npages && bit(g.pinned, gfn)
}

// IsCOW reports whether gfn currently maps a shared frame.
func (g *GuestPhys) IsCOW(gfn uint64) bool {
	return gfn < g.npages && bit(g.cow, gfn)
}

// Dirty reports the dirty bit of gfn.
func (g *GuestPhys) Dirty(gfn uint64) bool {
	return gfn < g.npages && bit(g.dirty, gfn)
}

// CollectDirty appends all dirty gfns to dst, clears their bits, and returns
// the extended slice. Migration calls this once per pre-copy round. Clearing
// dirty bits changes no page content (no version bumps), but it voids the
// write memo's "already dirty" assumption: the epoch bump forces the next
// store to every page back through resolveWrite, which re-dirties it — so a
// post-round store always lands in the next round's dirty set.
func (g *GuestPhys) CollectDirty(dst []uint64) []uint64 {
	g.bumpWriteEpoch()
	for w, word := range g.dirty {
		for word != 0 {
			b := word & -word
			i := uint64(w*wordsPerBitmap) + uint64(bits.TrailingZeros64(b))
			if i < g.npages {
				dst = append(dst, i)
			}
			word &^= b
		}
		g.dirty[w] = 0
	}
	return dst
}

// DirtyCount returns the number of dirty pages without clearing.
func (g *GuestPhys) DirtyCount() uint64 {
	var n uint64
	for _, w := range g.dirty {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// resolveWrite prepares gfn for writing: presence, write-protection and COW
// are all checked here, so every store in the machine funnels through one
// place. It returns the writable hfn, or the fault kind that stops the write
// (FaultNone means none): the CPU's store path carries the kind by value, and
// the device/VMM API turns it into a *Fault with faultOf.
func (g *GuestPhys) resolveWrite(gpa uint64) (uint64, FaultKind) {
	gfn := gpa >> isa.PageShift
	if gfn >= g.npages {
		return 0, FaultBeyondRAM
	}
	if bit(g.wprot, gfn) {
		return 0, FaultWriteProt
	}
	hfn := g.hfn[gfn]
	if hfn == NoFrame {
		return 0, FaultNotPresent
	}
	if bit(g.cow, gfn) {
		nfn, err := g.pool.BreakCOWNear(hfn, g.hint)
		if err != nil {
			// Pool exhausted: surface as not-present so the VMM's overcommit
			// policy can reclaim and retry.
			return 0, FaultNotPresent
		}
		g.hfn[gfn] = nfn
		clearBit(g.cow, gfn)
		g.COWBreaks++
		hfn = nfn
		// The frame under the gfn changed: any write-memo entry caching the
		// old backing array is stale.
		g.bumpWriteEpoch()
	}
	if !bit(g.dirty, gfn) {
		setBit(g.dirty, gfn)
		g.DirtySets++
	}
	g.bumpVersion(gfn)
	return hfn, FaultNone
}

// resolveRead is resolveWrite for reads: the hfn backing gpa, or the fault
// kind that stops the read.
func (g *GuestPhys) resolveRead(gpa uint64) (uint64, FaultKind) {
	gfn := gpa >> isa.PageShift
	if gfn >= g.npages {
		return 0, FaultBeyondRAM
	}
	hfn := g.hfn[gfn]
	if hfn == NoFrame {
		return 0, FaultNotPresent
	}
	return hfn, FaultNone
}

// faultOf is the one place a *Fault is built for the device/VMM API: nil
// for FaultNone, so the pointer is allocated on the fault path only.
func faultOf(k FaultKind, gpa uint64, acc isa.Access) *Fault {
	if k == FaultNone {
		return nil
	}
	return &Fault{Kind: k, GPA: gpa, Access: acc}
}

// Read copies len(buf) bytes from gpa; the range may span pages.
func (g *GuestPhys) Read(gpa uint64, buf []byte) *Fault {
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		hfn, k := g.resolveRead(gpa)
		if k != FaultNone {
			return faultOf(k, gpa, isa.AccRead)
		}
		g.pool.ReadAt(hfn, off, buf[:n])
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// Write copies buf to gpa; the range may span pages.
func (g *GuestPhys) Write(gpa uint64, buf []byte) *Fault {
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		hfn, k := g.resolveWrite(gpa)
		if k != FaultNone {
			return faultOf(k, gpa, isa.AccWrite)
		}
		g.pool.WriteAt(hfn, off, buf[:n])
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// ReadSpan is Read. It and WriteSpan stay as names because the benchmark's
// span micro-measurement (benchmark/micro.go) calls them.
func (g *GuestPhys) ReadSpan(gpa uint64, buf []byte) *Fault { return g.Read(gpa, buf) }

// WriteSpan is Write; see ReadSpan.
func (g *GuestPhys) WriteSpan(gpa uint64, buf []byte) *Fault { return g.Write(gpa, buf) }

// readHit is the read memo's hit rule: it returns gfn's slot and whether
// the slot still holds the page — same gfn, content version unchanged since
// the fill. Every event that could change what a read returns (stores,
// unmap, remap, demand fill, COW break, migration copies) bumps the version,
// so a hit proves the cached slice still is what resolveRead + Pool.Data
// would produce. m.gfn is only ever a valid gfn or NoFrame, so a gfn match
// proves the version index in range before it is touched.
func (g *GuestPhys) readHit(gfn uint64) (*readMemo, bool) {
	m := &g.rmemo[gfn&(rmemoSlots-1)]
	return m, m.gfn == gfn && atomic.LoadUint64(&g.ver[gfn]) == m.ver
}

// readFill is the read memo's fill: after a miss in m (readHit's slot for
// gfn), the caller resolves the page (resolveRead) and readFill installs
// the frame hfn it reached, returning the page's slice — nil for a
// logically-zero frame.
func (g *GuestPhys) readFill(m *readMemo, gfn, hfn uint64) []byte {
	data := g.pool.Data(hfn)
	*m = readMemo{gfn: gfn, ver: atomic.LoadUint64(&g.ver[gfn]), data: data}
	return data
}

// ReadUint reads a naturally aligned size-byte little-endian value
// (size ∈ {1,2,4,8}) through the read memo.
func (g *GuestPhys) ReadUint(gpa uint64, size int) (uint64, *Fault) {
	if m, ok := g.readHit(gpa >> isa.PageShift); ok {
		return readUintFrom(m.data, gpa&isa.PageMask, size), nil
	}
	v, k := g.ReadUintFill(gpa, size)
	return v, faultOf(k, gpa, isa.AccRead)
}

// ReadUintFill is ReadUint's slow path, for a caller that has already
// probed ReadUintFast: it resolves the page, installs it in the read memo
// and reads the value, or returns by value the kind of the isa.AccRead fault
// at gpa. The CPU's load and fetch slow paths use it.
func (g *GuestPhys) ReadUintFill(gpa uint64, size int) (uint64, FaultKind) {
	gfn := gpa >> isa.PageShift
	hfn, k := g.resolveRead(gpa)
	if k != FaultNone {
		return 0, k
	}
	m := &g.rmemo[gfn&(rmemoSlots-1)]
	return readUintFrom(g.readFill(m, gfn, hfn), gpa&isa.PageMask, size), FaultNone
}

// ReadUintFast is ReadUint's hit-only probe: it serves the value when the
// read memo covers the page (which also proves the address is inside guest
// RAM — only successful in-RAM resolutions fill the memo, so callers may
// skip their Contains/MMIO range checks on a hit) and reports false
// otherwise, performing nothing. Reads have no guest-visible side effects,
// so nothing needs replaying on a hit; the caller falls back to the full
// path on a miss.
func (g *GuestPhys) ReadUintFast(gpa uint64, size int) (uint64, bool) {
	if m, ok := g.readHit(gpa >> isa.PageShift); ok {
		return readUintFrom(m.data, gpa&isa.PageMask, size), true
	}
	return 0, false
}

// readUintFrom decodes the value at off from a page slice; nil means the
// frame is logically zero.
func readUintFrom(data []byte, off uint64, size int) uint64 {
	if data == nil {
		return 0
	}
	switch size {
	case 1:
		return uint64(data[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(data[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[off:]))
	default:
		return binary.LittleEndian.Uint64(data[off:])
	}
}

// WriteUint writes a naturally aligned size-byte little-endian value.
// This is the unmemoized store path: every call resolves the page and bumps
// its version. Device models and VMM-internal writes use it.
func (g *GuestPhys) WriteUint(gpa uint64, size int, v uint64) *Fault {
	hfn, k := g.resolveWrite(gpa)
	if k != FaultNone {
		return faultOf(k, gpa, isa.AccWrite)
	}
	writeUintTo(g.pool.writable(hfn, false), gpa&isa.PageMask, size, v)
	return nil
}

// writeHit is the write memo's hit rule: it returns the cached backing
// array of gfn when the slot still proves the resolveWrite verdict (same
// gfn, fill-time write epoch still current), or nil on a miss, performing
// nothing. A valid entry implies the page is inside guest RAM, present,
// writable, private and already dirty, so the slow path would have reached
// the same bytes with no guest-visible side effect beyond the write itself —
// except the version bump, which a hit coalesces: the first memoized write
// after an observation of the page's version (PageVersion disarms the slot)
// bumps it, keeping derived caches exactly coherent, and later writes in the
// same unobserved burst share that bump.
func (g *GuestPhys) writeHit(gfn uint64) []byte {
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	if atomic.LoadUint64(&m.gfn) != gfn || atomic.LoadUint64(&m.epoch) != atomic.LoadUint64(&g.wepoch) {
		return nil
	}
	if atomic.LoadUint32(&m.armed) == 0 {
		g.bumpVersion(gfn)
		atomic.StoreUint32(&m.armed, 1)
	}
	return m.data
}

// writeFill is the write memo's fill: after a miss, the caller runs
// resolveWrite in full (COW breaks, dirty accounting, the version bump,
// fault surfacing) and writeFill installs the verdict it reached — data,
// the materialized writable array of the frame now at gfn.
func (g *GuestPhys) writeFill(gfn uint64, data []byte) {
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	atomic.StoreUint64(&m.gfn, gfn)
	// Epoch read after resolveWrite: a COW break in the resolve bumps it,
	// and the entry must be valid for the frame the break installed.
	atomic.StoreUint64(&m.epoch, atomic.LoadUint64(&g.wepoch))
	m.data = data
	// resolveWrite just bumped the version for this write; that bump covers
	// the burst until the next observation.
	if atomic.LoadUint32(&m.armed) == 0 {
		atomic.StoreUint32(&m.armed, 1)
	}
}

// WriteUintFast is the memoized store fast path: on a write-memo hit the
// value goes straight into the cached backing array, skipping the per-store
// bitmap tests, dirty accounting and MMIO range checks (see writeHit).
// Returns false on a miss; the caller falls back to the full path
// (WriteUintFill).
func (g *GuestPhys) WriteUintFast(gpa uint64, size int, v uint64) bool {
	data := g.writeHit(gpa >> isa.PageShift)
	if data == nil {
		return false
	}
	writeUintTo(data, gpa&isa.PageMask, size, v)
	g.WMemoHits++
	return true
}

// WriteUintMemo is the complete memoized store path — the fast probe
// followed by the fill — for callers that have not already probed
// (the invalidation tests and the fuzz oracle drive it directly).
func (g *GuestPhys) WriteUintMemo(gpa uint64, size int, v uint64) *Fault {
	if g.WriteUintFast(gpa, size, v) {
		return nil
	}
	return faultOf(g.WriteUintFill(gpa, size, v), gpa, isa.AccWrite)
}

// WriteUintFill is WriteUint installing a write-memo entry for the page, so
// subsequent stores to it hit WriteUintFast. Behaviour and guest-visible
// side effects are identical to WriteUint; only the memo bookkeeping is
// added. This is the interpreter's store slow path: the caller has already
// probed WriteUintFast, so the fill does not re-probe, and it returns the
// fault kind (of isa.AccWrite at gpa) by value, FaultNone on success.
func (g *GuestPhys) WriteUintFill(gpa uint64, size int, v uint64) FaultKind {
	hfn, k := g.resolveWrite(gpa)
	if k != FaultNone {
		return k
	}
	data := g.pool.writable(hfn, false)
	g.writeFill(gpa>>isa.PageShift, data)
	g.WMemoFills++
	writeUintTo(data, gpa&isa.PageMask, size, v)
	return FaultNone
}

// writeUintTo encodes the value at off into a materialized page slice.
func writeUintTo(data []byte, off uint64, size int, v uint64) {
	switch size {
	case 1:
		data[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(data[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(data[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(data[off:], v)
	}
}

// WriteUintPriv is WriteUint for the VMM itself: it bypasses write-protect
// bits (the VMM emulating a guest store to a tracked page-table page) while
// still honouring COW and dirty tracking. The temporary protection toggle
// deliberately does not bump the write epoch: a protected page can hold no
// valid memo entry (the WriteProtect that protected it already bumped past
// any fill, and resolveWrite faults on protected pages so none forms while
// it stays protected), WriteUint never installs one, and the space is
// single-owner so no memoized store can interleave inside the window —
// bumping here would only flush the whole memo on every emulated PT write
// under shadow paging.
func (g *GuestPhys) WriteUintPriv(gpa uint64, size int, v uint64) *Fault {
	gfn := gpa >> isa.PageShift
	wasProt := g.WriteProtected(gfn)
	if wasProt {
		clearBit(g.wprot, gfn)
	}
	f := g.WriteUint(gpa, size, v)
	if wasProt {
		setBit(g.wprot, gfn)
	}
	return f
}

// ReadRaw is Read of one page (len(buf) ≤ isa.PageSize) without fault
// handling, for VMM-internal use (migration, snapshots, the icache's page
// capture) where pages are known present; unmapped pages read as zero.
func (g *GuestPhys) ReadRaw(gfn uint64, buf []byte) {
	if g.Frame(gfn) == NoFrame || g.Read(gfn<<isa.PageShift, buf) != nil {
		clear(buf)
	}
}

// WriteRaw installs page content at gfn, populating if needed, bypassing
// write-protection and COW semantics (migration restore path). The dirty
// bit is left untouched. The write epoch advances unconditionally — the
// frame may change under the gfn (COW split), and migration restores are
// cold enough that the conservative bump costs nothing.
func (g *GuestPhys) WriteRaw(gfn uint64, buf []byte) error {
	if err := g.Populate(gfn); err != nil {
		return err
	}
	hfn := g.hfn[gfn]
	if g.pool.Shared(hfn) {
		nfn, err := g.pool.BreakCOWNear(hfn, g.hint)
		if err != nil {
			return err
		}
		g.hfn[gfn] = nfn
		clearBit(g.cow, gfn)
	}
	g.pool.WriteAt(g.hfn[gfn], 0, buf)
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
	return nil
}

// Release returns every frame to the pool (VM teardown).
func (g *GuestPhys) Release() {
	for gfn := uint64(0); gfn < g.npages; gfn++ {
		g.Unmap(gfn)
	}
}
