package mmu

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/tlb"
)

// Engine is the shadow-paging engine of the trap-and-emulate VMM.
//
// The guest maintains its own page tables and believes the hardware walks
// them; in reality the VMM derives shadow translations on demand (Fill) and
// keeps them coherent by write-protecting every guest page-table page a
// shadow entry was derived through. A guest store to a protected page traps
// to the VMM, which emulates the store and invalidates the derived entries
// (InvalidatePTWrite) — the classic VMware/Disco design, with one shadow
// space cached per guest root so address-space switches don't rebuild from
// scratch. Every structure is a table that keeps its high-water capacity, so
// a warm engine allocates nothing.
type Engine struct {
	g      *mem.GuestPhys
	tlb    *tlb.TLB       // flushed whole by an eviction; nil flushes nothing
	spaces []*shadowSpace // most recently activated first
	pt     table          // guest PT gfns walked by a fill since their last write
	flush  []uint64       // InvalidatePTWrite's result
	Stats  EngineStats
}

// maxSpaces caps the shadow spaces of one engine. Past it, the least
// recently activated space is flushed and reused; its page-table pages stay
// tracked and protected until a write arrives. That write no longer finds the
// victim's pairs, so an eviction flushes the whole TLB, which may hold the
// victim's translations under its ASID. Every guest the simulator builds runs
// one root per VM: only satp cycling through fresh roots evicts.
const maxSpaces = 64

// EngineStats counts shadow-engine activity.
type EngineStats struct {
	Fills         uint64 // shadow misses resolved by walking guest tables
	FillRefs      uint64 // guest PTEs read during fills
	WPInstalls    uint64 // page-table pages newly write-protected
	PTWriteTraps  uint64 // guest writes to protected PT pages
	Invalidations uint64 // shadow entries dropped by PT writes
	SpaceFlushes  uint64
	Spaces        uint64 // live shadow spaces (gauge)
	Evictions     uint64 // spaces dropped to stay within maxSpaces
}

// ShadowEntry is one derived translation.
type ShadowEntry struct {
	PPN    uint64
	Perms  uint8
	Global bool
}

// A shadowSpace holds one root's entries and its guest-PT reverse map: the
// (ptGfn, vpn) pairs filled since ptGfn's last write or the space's last
// flush, one slot each, chained per ptGfn through their values. FlushVA
// removes no pair, so a write to a vpn's old table page still invalidates it.
// The pairs a walk's first step makes with the root are implicit: every live
// entry has one, so a write to the root drops every live entry.
type shadowSpace struct {
	root    uint64
	entries table // vpn → PPN<<9 | Global<<8 | Perms
	rmap    table // (ptGfn, vpn) → next vpn+1 (0 ends); (ptGfn, rmapHead) → first
}

// rmapHead is the vpn slot of a chain head: one past the largest vpn.
const rmapHead = 1 << (isa.VABits - isa.PageShift)

func rmapKey(ptGfn, vpn uint64) uint64 { return ptGfn*(rmapHead<<1) | vpn }

func (s *shadowSpace) reset() { s.entries.clear(); s.rmap.clear() }

// NewEngine creates a shadow engine over g. Its tables grow on first use.
func NewEngine(g *mem.GuestPhys) *Engine { return &Engine{g: g} }

// find returns root's space, activating it (moving it to the front), or nil.
// A hit on the current root costs one compare.
func (e *Engine) find(root uint64) *shadowSpace {
	for i, s := range e.spaces {
		if s.root == root {
			if i > 0 {
				copy(e.spaces[1:i+1], e.spaces[:i])
				e.spaces[0] = s
			}
			return s
		}
	}
	return nil
}

// space returns root's space, adding one when it has none or, at the cap,
// reusing the least recently activated space.
func (e *Engine) space(root uint64) *shadowSpace {
	if s := e.find(root); s != nil {
		return s
	}
	if n := len(e.spaces); n < maxSpaces {
		e.spaces = append(e.spaces, new(shadowSpace))
		e.Stats.Spaces = uint64(n + 1)
	} else {
		e.spaces[n-1].reset()
		e.Stats.Evictions++
		if e.tlb != nil {
			e.tlb.FlushAll()
		}
	}
	e.spaces[len(e.spaces)-1].root = root
	return e.find(root)
}

// Lookup finds a derived translation for va under the guest root.
func (e *Engine) Lookup(root, va uint64) (ShadowEntry, bool) {
	if s := e.find(root); s != nil {
		v, ok := s.entries.get(va >> isa.PageShift)
		return ShadowEntry{PPN: v >> 9, Perms: uint8(v), Global: v&(1<<8) != 0}, ok
	}
	return ShadowEntry{}, false
}

// Fill resolves a shadow miss: it walks the guest tables for va, installs a
// derived entry, and write-protects the table pages it walked through.
// It returns the guest PTE refs consumed (charged as VMM emulation work).
// A *Fault of kind FaultGuest means the guest's own tables do not map va and
// the VMM must inject a page fault; FaultHost escalates host-level problems.
func (e *Engine) Fill(root, va uint64, acc isa.Access, userMode bool) (refs int, fault *Fault) {
	wr, werr := Walk(e.g, root, va)
	if werr != nil && werr.Fault != nil {
		return wr.Refs, &Fault{Kind: FaultHost, VA: va, Mem: werr.Fault}
	}
	perms := tlb.PermsFromPTE(wr.PTE)
	if werr != nil || denied(perms, acc, userMode) {
		return wr.Refs, &Fault{Kind: FaultGuest, Cause: isa.PageFaultCause(acc), VA: va}
	}
	s := e.space(root)
	vpn := va >> isa.PageShift
	s.entries.put(vpn, wr.GPA>>isa.PageShift<<9|wr.PTE&isa.PTEGlobal<<3|uint64(perms))
	for i, ptGfn := range wr.Path[:wr.Plen] {
		if _, dup := s.rmap.get(rmapKey(ptGfn, vpn)); i > 0 && !dup {
			head, _ := s.rmap.get(rmapKey(ptGfn, rmapHead))
			s.rmap.put(rmapKey(ptGfn, vpn), head)
			s.rmap.put(rmapKey(ptGfn, rmapHead), vpn+1)
		}
		e.pt.put(ptGfn, 0)
		if !e.g.WriteProtected(ptGfn) {
			e.g.WriteProtect(ptGfn, true)
			e.Stats.WPInstalls++
		}
	}
	e.Stats.Fills++
	e.Stats.FillRefs += uint64(wr.Refs)
	return wr.Refs, nil
}

// IsPTPage reports whether gfn is currently tracked as a guest page-table
// page (so a write-protect fault on it belongs to this engine).
func (e *Engine) IsPTPage(gfn uint64) bool { _, ok := e.pt.get(gfn); return ok }

// InvalidatePTWrite handles a trapped guest store to the protected PT page
// gfn: every shadow entry derived through it is dropped from every space,
// and the page is unprotected. It returns the virtual pages whose TLB
// entries the caller must flush, a page once per space that held it, in a
// slice valid until the next call. The caller emulates the store itself
// afterwards with WriteUintPriv.
func (e *Engine) InvalidatePTWrite(gfn uint64) []uint64 {
	e.Stats.PTWriteTraps++
	e.flush = e.flush[:0]
	for _, s := range e.spaces {
		if s.root == gfn {
			for _, sl := range s.entries.slots {
				if sl.key != 0 {
					e.Stats.Invalidations++
					e.flush = append(e.flush, sl.key-1)
				}
			}
			s.entries.clear()
		}
		for next, _ := s.rmap.del(rmapKey(gfn, rmapHead)); next != 0; {
			vpn := next - 1
			next, _ = s.rmap.del(rmapKey(gfn, vpn))
			if _, live := s.entries.del(vpn); live {
				e.Stats.Invalidations++
				e.flush = append(e.flush, vpn)
			}
		}
	}
	e.pt.del(gfn)
	e.g.WriteProtect(gfn, false)
	return e.flush
}

// FlushVA drops the derived entry for one page (guest SFENCE.VMA va).
func (e *Engine) FlushVA(root, va uint64) {
	if s := e.find(root); s != nil {
		s.entries.del(va >> isa.PageShift)
	}
}

// FlushSpace drops every derived entry for a guest root (guest SFENCE.VMA
// with no operands, or the VMM reclaiming memory). Write protection on the
// guest's table pages is released lazily: pages remain protected until an
// actual write arrives, mirroring how real shadow VMMs batch unprotection.
func (e *Engine) FlushSpace(root uint64) {
	if s := e.find(root); s != nil {
		e.Stats.SpaceFlushes++
		s.reset()
	}
}

// DropAll discards every space (VM reset / teardown) and releases all write
// protection installed by the engine.
func (e *Engine) DropAll() {
	for _, sl := range e.pt.slots {
		if sl.key != 0 {
			e.g.WriteProtect(sl.key-1, false)
		}
	}
	e.pt.clear()
	e.spaces, e.Stats.Spaces = nil, 0
}

// table is an open-addressed uint64 → uint64 hash table with linear probing.
// It allocates only to grow: a deletion shifts the rest of its probe run back
// rather than leave a tombstone. A slot stores key+1, so a zero slot is
// free. Slot order, and so iteration, is deterministic.
type table struct {
	slots []slot // len is zero or a power of two
	n     int    // live slots
}

type slot struct{ key, val uint64 }

func (t *table) home(k uint64) uint64 {
	return k * 0x9E3779B97F4A7C15 >> 32 & uint64(len(t.slots)-1)
}

// find returns the slot holding key, or the free slot that ends its run.
func (t *table) find(key uint64) (uint64, bool) {
	mask, i := uint64(len(t.slots)-1), t.home(key+1)
	for ; t.n > 0 && t.slots[i].key != 0; i = (i + 1) & mask {
		if t.slots[i].key == key+1 {
			return i, true
		}
	}
	return i, false
}

// get returns key's value, or 0. It is the probe of translateShadow's hit,
// find spelled out so that it inlines.
func (t *table) get(key uint64) (uint64, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key + 1); t.n > 0 && t.slots[i].key != 0; i = (i + 1) & mask {
		if t.slots[i].key == key+1 {
			return t.slots[i].val, true
		}
	}
	return 0, false
}

func (t *table) put(key, val uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots, t.n = make([]slot, max(8, 2*len(old))), 0
		for _, s := range old {
			if s.key != 0 {
				t.put(s.key-1, s.val)
			}
		}
	}
	i, ok := t.find(key)
	if !ok {
		t.n++
	}
	t.slots[i] = slot{key + 1, val}
}

// del removes key and returns the value it held.
func (t *table) del(key uint64) (uint64, bool) {
	i, ok := t.find(key)
	if !ok {
		return 0, false
	}
	val, mask := t.slots[i].val, uint64(len(t.slots)-1)
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home is in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = slot{}
	t.n--
	return val, true
}

func (t *table) clear() { clear(t.slots); t.n = 0 }
