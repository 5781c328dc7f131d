package vcpu

import (
	"encoding/binary"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// instPerPage is how many 32-bit instruction slots one guest page holds.
const instPerPage = isa.PageSize / 4

// maxCachedPages bounds the cache's host memory (~28 KiB per page). Guests
// execute from a handful of pages, so the bound only matters for pathological
// code that jumps through all of RAM; hitting it evicts the least recently
// fetched page and predecode refills on demand.
const maxCachedPages = 1024

// decodedPage is one guest code page in instruction form. Raw words are
// captured when the page is filled; each slot's isa.Inst is decoded lazily
// on first fetch (the valid bitmap tracks which), so a refill after
// invalidation costs one page copy rather than a thousand decodes — a guest
// that keeps storing to a page it executes from degrades gracefully instead
// of falling off a predecode cliff. The lazy decode also resolves the
// slot's threaded-dispatch executor (fn[i], see dispatch.go), so steady-
// state execution calls a direct func pointer per instruction.
//
// Fill also lowers the page into superblocks: blkLen[i] is the number of
// straight-line instructions (isa.IsBlockStraight) starting at slot i before
// the next block terminator — branch, jump, system op, invalid slot or the
// page boundary — and blkMem[i] counts the loads/stores among them. Both are
// suffix sums over the raw opcode bytes, so any slot can enter block
// dispatch mid-run (a block that bails at instruction k resumes as the
// k-suffix block). Terminator slots have blkLen 0 and execute on the
// single-instruction path.
type decodedPage struct {
	ver     uint64 // mem.GuestPhys.PageVersion at fill time
	lastUse uint64 // ICache tick at last hit, for eviction
	valid   [instPerPage / 64]uint64
	ins     [instPerPage]isa.Inst
	fn      [instPerPage]execFn
	raw     [instPerPage]uint32
	blkLen  [instPerPage]uint16
	blkMem  [instPerPage]uint16
	chain   [chainSets][chainWays]chainLink
}

// The per-page block-chain table is set-associative: chainSets sets, chosen
// by the low bits of the source slot, of chainWays ways each. Chain sources
// are sparse — a few branches per loop plus the page-boundary fallthrough —
// so 32 links cover the hot successors while bounding the per-page
// footprint. Two ways let a conditional branch keep its taken and its
// fall-through successor side by side (QEMU's two jump slots per
// translation block): a loop's exit edge no longer evicts its back edge, or
// the trace hanging off it.
const (
	chainSets = 16
	chainWays = 2
)

// chainLink caches one resolved successor of a chain source: the slot of a
// control-transfer terminator, or the page-boundary pseudo-terminator (slot
// instPerPage-1 of a page whose last instruction is straight-line). A
// source may hold a link per way, told apart by successor PC. A link is a
// pure host-side hint. Every use proves it exact first, through linkValid
// or followLink: the observed successor PC must recur, the target page's
// content version must match, and the translation snapshot must revalidate
// (SATP, privilege, TLB generation) — the same counters that guard the
// fetch memo and the icache itself. A stale link is re-recorded in place;
// a new successor replaces the set's least recently recorded way.
type chainLink struct {
	valid bool
	mru   bool   // the most recently recorded way of its set
	slot  uint16 // source slot (set tag)
	tslot uint16 // target slot within the successor page
	heat  uint16 // consecutive validated consumes; trace forms at threshold
	pc    uint64 // successor virtual PC observed at record time
	gfn   uint64 // successor guest-physical page
	page  *decodedPage
	snap  mmu.FetchSnap
	tr    *trace // hot trace entered through this link, nil until promoted
}

// The lazy slot decode (check valid bit, isa.Decode on first touch) lives
// inline in CPU.Run's fetch path: as a method it is beyond the compiler's
// inlining budget and the call costs measurable ns per retired instruction.

// ICacheStats counts decoded-instruction cache activity. All of it is
// host-side bookkeeping: no counter here corresponds to any guest-visible
// event, which is the point — the cache is architecturally invisible.
type ICacheStats struct {
	Hits          uint64 // fetches served from a cached page
	Misses        uint64 // fetches from pages not in the cache
	Invalidations uint64 // fetches that found a stale cached page
	Predecodes    uint64 // pages (re)filled; slot decode is lazy on top
	Evictions     uint64 // pages dropped to stay under maxCachedPages
	ChainHits     uint64 // block entries served from a validated chain link
	ChainMisses   uint64 // chain consults that found no link or a stale one
	ChainResolves uint64 // links recorded or refreshed
	Crossings     uint64 // superblocks continued across a page boundary

	TraceFormations    uint64 // hot chains lowered into traces
	TraceEntries       uint64 // trace passes entered (one per loop iteration)
	TraceDemotions     uint64 // entries rejected or passes cut back to blocks
	TraceInvalidations uint64 // traces dropped (stale beyond repair, evicted)
}

// ICache is the decoded-instruction block cache on the interpreter's fetch
// path. Guest code pages are captured wholesale and decoded into isa.Inst
// slots on first execution, keyed by guest-physical page; while the fetch
// stream stays on a page whose mem.PageVersion is unchanged, the interpreter
// skips the guest-RAM read and isa.Decode per instruction. Coherence is by
// version validation rather than
// invalidation callbacks: any write, demand fill, balloon unmap, dedup remap
// or migration copy bumps the page's version, and the next fetch from the
// page notices and re-predecodes. The cache carries no architectural state,
// so cycles, instret, registers, CSRs and every simulation statistic are
// byte-identical with the cache on or off.
type ICache struct {
	pages  map[uint64]*decodedPage
	curGfn uint64 // one-entry MRU so streaming a page skips the map
	cur    *decodedPage
	tick   uint64 // advances on fills and MRU transitions; orders eviction
	buf    [isa.PageSize]byte
	// traces is the trace store (trace.go): a slice, not a map, so eviction
	// scans and registration order are deterministic run to run.
	traces []*trace
	Stats  ICacheStats
}

// NewICache creates an empty decoded-instruction cache.
func NewICache() *ICache {
	return &ICache{pages: make(map[uint64]*decodedPage), curGfn: mem.NoFrame}
}

// lookup returns the predecoded page for gfn if it is still coherent with
// guest memory, or nil — the caller then falls back to the uncached fetch
// and calls fill.
func (ic *ICache) lookup(g *mem.GuestPhys, gfn uint64) *decodedPage {
	p := ic.cur
	if gfn != ic.curGfn {
		var ok bool
		if p, ok = ic.pages[gfn]; !ok {
			ic.Stats.Misses++
			return nil
		}
		ic.curGfn, ic.cur = gfn, p
	}
	if p.ver != g.PageVersion(gfn) {
		ic.Stats.Invalidations++
		ic.releasePage(p)
		delete(ic.pages, gfn)
		ic.curGfn, ic.cur = mem.NoFrame, nil
		return nil
	}
	// Every hit refreshes the eviction stamp — including streaming MRU hits.
	// Stamping only on MRU transitions (the original behaviour) let evictOne
	// victimize the page a tight loop was executing from the moment the
	// cache filled with colder pages.
	ic.tick++
	p.lastUse = ic.tick
	ic.Stats.Hits++
	return p
}

// chainAt returns the link recorded for source slot with successor pc, or
// nil. It runs on every armed terminator, so the two-way probe is unrolled
// to stay within the inliner's budget.
func (p *decodedPage) chainAt(slot uint16, pc uint64) *chainLink {
	s := &p.chain[slot&(chainSets-1)]
	if l := &s[0]; l.valid && l.slot == slot && l.pc == pc {
		return l
	}
	if l := &s[1]; l.valid && l.slot == slot && l.pc == pc {
		return l
	}
	return nil
}

// chainWalk returns the link trace formation follows from source slot,
// whose successor it cannot know in advance: entry itself when it is one of
// the slot's ways (the walk closed a loop), else the slot's most recently
// recorded way, or nil.
func (p *decodedPage) chainWalk(slot uint16, entry *chainLink) *chainLink {
	s := &p.chain[slot&(chainSets-1)]
	var pick *chainLink
	for w := range s {
		l := &s[w]
		if !l.valid || l.slot != slot {
			continue
		}
		if l == entry {
			return l
		}
		if pick == nil || l.mru {
			pick = l
		}
	}
	return pick
}

// linkValid is the read-only half of the link proof: l is a recorded link
// whose observed successor is pc, whose target page's content version is
// unchanged, and whose translation snapshot still describes a fresh fetch
// of pc (mmu.CheckFetchSnap). It changes no statistic, so trace formation
// and trace entry may run it over every constituent link.
func (c *CPU) linkValid(l *chainLink, pc uint64) bool {
	return l != nil && l.pc == pc && c.Mem.PageVersion(l.gfn) == l.page.ver &&
		c.MMU.CheckFetchSnap(&l.snap, pc, c.Priv == PrivU)
}

// followLink is the consuming half: when l proves the fetch at the current
// PC — same conditions as linkValid, with mmu.ChainFetch replaying exactly
// the bookkeeping the real TranslateFetch would perform — it disarms the
// chain source, replays the icache lookup hit (noteChainHit) and reports
// true. Otherwise it changes nothing and the caller takes the full path.
func (c *CPU) followLink(l *chainLink) bool {
	if l == nil || l.pc != c.PC || c.Mem.PageVersion(l.gfn) != l.page.ver ||
		!c.MMU.ChainFetch(&l.snap, c.PC, c.Priv == PrivU) {
		return false
	}
	c.chainArmed = false
	c.ICache.noteChainHit(l.gfn, l.page)
	return true
}

// setChain records the resolved successor of source slot: the successor's
// predecoded page, slot, observed PC and the fetch-translation snapshot
// ChainFetch will revalidate on consumption. It overwrites the way already
// holding this (slot, pc) successor, else the set's least recently recorded
// way. The overwritten link's heat starts over, and a trace hanging off it
// leaves the store with it, so the store never holds a trace no link enters.
func (ic *ICache) setChain(p *decodedPage, slot uint16, pc uint64, target *decodedPage, gfn uint64, tslot uint16, snap mmu.FetchSnap) {
	s := &p.chain[slot&(chainSets-1)]
	l := p.chainAt(slot, pc)
	if l == nil {
		l = &s[0]
		if l.mru {
			l = &s[1]
		}
	}
	if l.tr != nil {
		ic.dropTrace(l.tr)
	}
	s[0].mru, s[1].mru = false, false
	*l = chainLink{
		valid: true, mru: true, slot: slot, tslot: tslot, pc: pc, gfn: gfn, page: target, snap: snap,
	}
	ic.Stats.ChainResolves++
}

// releasePage drops the traces entered through p's links: p is leaving the
// cache, and its links with it.
func (ic *ICache) releasePage(p *decodedPage) {
	for s := range p.chain {
		for w := range p.chain[s] {
			if tr := p.chain[s][w].tr; tr != nil {
				ic.dropTrace(tr)
			}
		}
	}
}

// noteChainHit replays the icache bookkeeping of a lookup hit for a block
// entry served from a chain link — hit count, MRU slot, eviction stamp —
// so the cache's host-side state evolves as if the map lookup had run.
func (ic *ICache) noteChainHit(gfn uint64, p *decodedPage) {
	ic.curGfn, ic.cur = gfn, p
	ic.tick++
	p.lastUse = ic.tick
	ic.Stats.Hits++
	ic.Stats.ChainHits++
}

// fill captures the raw words of the page at gfn and lowers it into
// superblocks; instruction decode happens lazily per slot. It is called only
// after an uncached fetch from the page succeeded, so the page is present in
// guest RAM; the raw read has no guest-visible side effects (no dirty bits,
// no stats, no cycles).
func (ic *ICache) fill(g *mem.GuestPhys, gfn uint64) {
	if len(ic.pages) >= maxCachedPages {
		ic.evictOne()
	}
	p := &decodedPage{ver: g.PageVersion(gfn)}
	g.ReadRaw(gfn, ic.buf[:])
	for i := 0; i < instPerPage; i++ {
		p.raw[i] = binary.LittleEndian.Uint32(ic.buf[i*4:])
	}
	// Superblock lowering: one backward pass computes, per slot, the
	// straight-line run length to the next terminator and the memory-op
	// count within it. Classification needs only the opcode bits, so the
	// pass stays on the raw words and full decode stays lazy.
	for i := instPerPage - 1; i >= 0; i-- {
		op := isa.Op(p.raw[i] >> 26)
		if !isa.IsBlockStraight(op) {
			continue // terminator: blkLen stays 0
		}
		var memOp uint16
		if isa.IsMemOp(op) {
			memOp = 1
		}
		if i == instPerPage-1 {
			p.blkLen[i], p.blkMem[i] = 1, memOp
		} else {
			p.blkLen[i] = p.blkLen[i+1] + 1
			p.blkMem[i] = p.blkMem[i+1] + memOp
		}
	}
	ic.pages[gfn] = p
	ic.curGfn, ic.cur = gfn, p
	ic.tick++
	p.lastUse = ic.tick
	ic.Stats.Predecodes++
}

// evictOne drops the least recently fetched page (ties broken on the lower
// gfn so the choice is independent of map iteration order — the cache must
// behave identically run to run even though it is host-side only).
func (ic *ICache) evictOne() {
	victim := mem.NoFrame
	var vp *decodedPage
	//govisor:nondet(total-order fold on (lastUse, gfn); victim is independent of iteration order)
	for gfn, p := range ic.pages {
		if vp == nil || p.lastUse < vp.lastUse || (p.lastUse == vp.lastUse && gfn < victim) {
			victim, vp = gfn, p
		}
	}
	if vp == nil {
		return
	}
	ic.releasePage(vp)
	delete(ic.pages, victim)
	if victim == ic.curGfn {
		ic.curGfn, ic.cur = mem.NoFrame, nil
	}
	ic.Stats.Evictions++
}
