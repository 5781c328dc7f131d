// Package ksm implements content-based page sharing across VMs, in the
// style of VMware ESX's transparent page sharing and Linux KSM: a scanner
// hashes guest pages, merges identical frames into one copy-on-write frame,
// and lets the write path (mem.GuestPhys COW handling) split them again.
// Experiment F9 measures the memory it reclaims and what scanning costs.
package ksm

import (
	"bytes"
	"hash/fnv"

	"govisor/internal/mem"
)

// Stats counts scanner activity.
type Stats struct {
	PagesScanned uint64
	PagesMerged  uint64
	ZeroPages    uint64
	HashBytes    uint64 // bytes hashed (scan-cost proxy)
	FramesFreed  uint64
}

// Scanner deduplicates pages across a set of guest address spaces sharing
// one host pool.
type Scanner struct {
	pool *mem.Pool

	// canon maps content hash → a canonical (hfn, owner, gfn) triple.
	canon map[uint64]canonRef

	Stats Stats
}

type canonRef struct {
	hfn   uint64
	owner *mem.GuestPhys
	gfn   uint64
}

// NewScanner creates a scanner over the pool.
func NewScanner(pool *mem.Pool) *Scanner {
	return &Scanner{pool: pool, canon: make(map[uint64]canonRef)}
}

// hashPage hashes frame content; nil (lazily zero) frames hash as zero page.
func (s *Scanner) hashPage(hfn uint64) (uint64, bool) {
	data := s.pool.Data(hfn)
	if data == nil {
		return 0, true // logically zero
	}
	h := fnv.New64a()
	h.Write(data)
	s.Stats.HashBytes += uint64(len(data))
	return h.Sum64(), mem.IsZeroPage(data)
}

// equalFrames confirms byte equality before merging (hash collisions must
// never corrupt guests).
func (s *Scanner) equalFrames(a, b uint64) bool {
	da, db := s.pool.Data(a), s.pool.Data(b)
	if da == nil && db == nil {
		return true
	}
	if da == nil || db == nil {
		return s.pool.IsZero(a) && s.pool.IsZero(b)
	}
	return bytes.Equal(da, db)
}

// ScanVM performs one full pass over a guest's pages, merging any whose
// content matches a previously seen canonical frame. Pages already shared
// are skipped. It returns the number of frames freed by this pass.
//
//govisor:serialonly(remaps frames shared across VMs; only safe at the epoch barrier)
func (s *Scanner) ScanVM(g *mem.GuestPhys) uint64 {
	var freed uint64
	before := s.pool.InUse()
	for gfn := uint64(0); gfn < g.Pages(); gfn++ {
		hfn := g.Frame(gfn)
		if hfn == mem.NoFrame {
			continue
		}
		s.Stats.PagesScanned++
		if g.IsCOW(gfn) {
			continue // already sharing
		}
		// Never merge write-protected pages (page-table pages under shadow
		// or para): their protection semantics must stay exact.
		if g.WriteProtected(gfn) {
			continue
		}
		hash, isZero := s.hashPage(hfn)
		if isZero {
			s.Stats.ZeroPages++
		}
		ref, seen := s.canon[hash]
		if !seen || ref.hfn == hfn {
			s.canon[hash] = canonRef{hfn: hfn, owner: g, gfn: gfn}
			continue
		}
		// Canon entries outlive passes: the recorded owner may have unmapped
		// or split the page since, and the pool may have handed the frame to
		// another VM that is not copy-on-write. Merge only onto a frame its
		// recorded owner still maps (so MarkCOWIfMapped below does protect
		// it) and whose content still matches; otherwise the entry is stale
		// and this page becomes the canonical one.
		if ref.owner.Frame(ref.gfn) != ref.hfn || !s.equalFrames(ref.hfn, hfn) {
			s.canon[hash] = canonRef{hfn: hfn, owner: g, gfn: gfn}
			continue
		}
		// Merge: point this gfn at the canonical frame, COW both sides.
		s.pool.IncRef(ref.hfn)
		g.MapShared(gfn, ref.hfn)
		ref.owner.MarkCOWIfMapped(ref.gfn, ref.hfn)
		s.Stats.PagesMerged++
	}
	after := s.pool.InUse()
	if before > after {
		freed = before - after
		s.Stats.FramesFreed += freed
	}
	return freed
}

// ScanAll runs one pass over every VM address space, returning total frames
// freed.
//
//govisor:serialonly(remaps frames shared across VMs; only safe at the epoch barrier)
func (s *Scanner) ScanAll(gs []*mem.GuestPhys) uint64 {
	var freed uint64
	for _, g := range gs {
		freed += s.ScanVM(g)
	}
	return freed
}
