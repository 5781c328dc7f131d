// Package mmu implements address translation for the simulated machine: the
// architectural page-table walker, the per-vCPU translation context covering
// the three virtualization styles (direct/1-D paging, VMM-maintained shadow
// paging, and hardware-assisted nested paging with its two-dimensional walk
// cost), and the shadow-paging engine that keeps VMM-derived translations
// coherent with guest page tables through write protection.
package mmu

import (
	"fmt"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// WalkResult reports a successful page-table walk.
type WalkResult struct {
	PTE     uint64 // the leaf PTE
	Level   int    // 0 = 4 KiB leaf, 1 = 2 MiB superpage, 2 = 1 GiB
	Refs    int    // page-table entries read
	PTEAddr uint64 // guest-physical address of the leaf PTE
	GPA     uint64 // translated physical address for the input VA

	// Path lists the guest-physical page numbers of every table page
	// touched, root first. The shadow engine write-protects exactly these.
	Path [isa.PTLevels]uint64
	Plen int
}

// WalkError reports a failed walk.
type WalkError struct {
	// Fault, when non-nil, is a guest-physical access failure while reading
	// a PTE (e.g. a page-table page that is ballooned out). It escalates to
	// the VMM, not the guest.
	Fault *mem.Fault
	// Otherwise the walk failed architecturally (invalid or misshapen PTE)
	// and the guest receives a page fault; Level records where.
	Level int
}

func (e *WalkError) Error() string {
	if e.Fault != nil {
		return fmt.Sprintf("mmu: walk aborted by host fault: %v", e.Fault)
	}
	return fmt.Sprintf("mmu: page fault at walk level %d", e.Level)
}

// Walk performs the architectural 3-level walk of the table rooted at
// rootPPN, translating va. It does not check access permissions — the
// caller compares WalkResult.PTE bits against the access — but it does
// reject non-canonical addresses and malformed tables.
func Walk(g *mem.GuestPhys, rootPPN, va uint64) (WalkResult, *WalkError) {
	var res WalkResult
	if va>>isa.VABits != 0 {
		return res, &WalkError{Level: isa.PTLevels - 1}
	}
	tablePPN := rootPPN
	for level := isa.PTLevels - 1; level >= 0; level-- {
		res.Path[res.Plen] = tablePPN
		res.Plen++
		pteAddr := tablePPN<<isa.PageShift + isa.VPN(va, level)*8
		pte, f := g.ReadUint(pteAddr, 8)
		if f != nil {
			return res, &WalkError{Fault: f}
		}
		res.Refs++
		if pte&isa.PTEValid == 0 {
			return res, &WalkError{Level: level}
		}
		if !isa.PTELeaf(pte) {
			if level == 0 {
				// Pointer at the last level is malformed.
				return res, &WalkError{Level: level}
			}
			tablePPN = isa.PTEPPN(pte)
			continue
		}
		// Leaf: superpages must be naturally aligned.
		ppn := isa.PTEPPN(pte)
		span := uint64(1) << (uint(level) * isa.PTEntriesShift)
		if ppn&(span-1) != 0 {
			return res, &WalkError{Level: level}
		}
		offMask := span<<isa.PageShift - 1
		res.PTE = pte
		res.Level = level
		res.PTEAddr = pteAddr
		res.GPA = ppn<<isa.PageShift | va&offMask
		return res, nil
	}
	panic("unreachable")
}

// TableBuilder constructs guest page tables inside guest-physical memory.
// The guest kernel generated by internal/guest does this itself in GV64
// code for realism, but tests and the VMM's identity-map bootstrap use this
// Go-side builder.
type TableBuilder struct {
	g       *mem.GuestPhys
	nextPPN uint64 // bump allocator for table pages
	limit   uint64
	RootPPN uint64
	Pages   int // table pages allocated
}

// NewTableBuilder creates a builder allocating table pages from the region
// [startPPN, startPPN+maxPages). The root table is allocated immediately.
func NewTableBuilder(g *mem.GuestPhys, startPPN, maxPages uint64) (*TableBuilder, error) {
	tb := &TableBuilder{g: g, nextPPN: startPPN, limit: startPPN + maxPages}
	root, err := tb.allocTable()
	if err != nil {
		return nil, err
	}
	tb.RootPPN = root
	return tb, nil
}

func (tb *TableBuilder) allocTable() (uint64, error) {
	if tb.nextPPN >= tb.limit {
		return 0, fmt.Errorf("mmu: table region exhausted (%d pages)", tb.Pages)
	}
	ppn := tb.nextPPN
	tb.nextPPN++
	tb.Pages++
	// Ensure the page exists and is zeroed.
	if err := tb.g.Populate(ppn); err != nil {
		return 0, err
	}
	return ppn, nil
}

// Map installs a 4 KiB mapping va → pa with the given PTE flag bits
// (PTEValid is implied).
func (tb *TableBuilder) Map(va, pa uint64, flags uint64) error {
	return tb.mapLevel(va, pa, flags, 0)
}

// MapSuper installs a 2 MiB superpage mapping; va and pa must be 2 MiB
// aligned.
func (tb *TableBuilder) MapSuper(va, pa uint64, flags uint64) error {
	if va&(isa.MegaPageSize-1) != 0 || pa&(isa.MegaPageSize-1) != 0 {
		return fmt.Errorf("mmu: superpage mapping %#x→%#x misaligned", va, pa)
	}
	return tb.mapLevel(va, pa, flags, 1)
}

func (tb *TableBuilder) mapLevel(va, pa uint64, flags uint64, leafLevel int) error {
	pteAddr, _, err := tb.slot(va, leafLevel, true)
	if err != nil {
		return err
	}
	pte := isa.MakePTE(pa>>isa.PageShift, flags|isa.PTEValid|isa.PTEAcc|isa.PTEDirty)
	if f := tb.g.WriteUintPriv(pteAddr, 8, pte); f != nil {
		return f
	}
	return nil
}

// EnsureL0 allocates (if needed) the level-0 table covering va and returns
// its page number. The VMM uses it to precompute leaf-PTE addresses handed
// to guest kernels (the PT-churn workload writes those slots directly).
func (tb *TableBuilder) EnsureL0(va uint64) (uint64, error) {
	pteAddr, _, err := tb.slot(va, 0, true)
	return pteAddr >> isa.PageShift, err
}

// Unmap clears the 4 KiB mapping at va (no-op if the covering tables are
// absent).
func (tb *TableBuilder) Unmap(va uint64) error {
	pteAddr, present, err := tb.slot(va, 0, false)
	if err != nil || !present {
		return err
	}
	if f := tb.g.WriteUintPriv(pteAddr, 8, 0); f != nil {
		return f
	}
	return nil
}

// slot is the builder's one table descent: it walks from the root to the
// table at level and returns the guest-physical address of va's entry in it.
// A missing table on the way is allocated when alloc is set; otherwise the
// descent stops there and reports present == false. A non-canonical va, or
// one a superpage above level already covers, is an error.
func (tb *TableBuilder) slot(va uint64, level int, alloc bool) (pteAddr uint64, present bool, err error) {
	if va>>isa.VABits != 0 {
		return 0, false, fmt.Errorf("mmu: va %#x not canonical", va)
	}
	tablePPN := tb.RootPPN
	for l := isa.PTLevels - 1; l > level; l-- {
		addr := tablePPN<<isa.PageShift + isa.VPN(va, l)*8
		pte, f := tb.g.ReadUint(addr, 8)
		if f != nil {
			return 0, false, f
		}
		if pte&isa.PTEValid == 0 {
			if !alloc {
				return 0, false, nil
			}
			next, err := tb.allocTable()
			if err != nil {
				return 0, false, err
			}
			pte = isa.MakePTE(next, isa.PTEValid)
			if f := tb.g.WriteUintPriv(addr, 8, pte); f != nil {
				return 0, false, f
			}
		} else if isa.PTELeaf(pte) {
			return 0, false, fmt.Errorf("mmu: va %#x covered by a level-%d superpage", va, l)
		}
		tablePPN = isa.PTEPPN(pte)
	}
	return tablePPN<<isa.PageShift + isa.VPN(va, level)*8, true, nil
}

// TablePPNs returns the page numbers of every table page allocated so far
// (root first); the paravirtual VMM pins (write-protects) exactly these.
func (tb *TableBuilder) TablePPNs() []uint64 {
	out := make([]uint64, 0, tb.Pages)
	for ppn := tb.RootPPN; ppn < tb.nextPPN; ppn++ {
		out = append(out, ppn)
	}
	return out
}

// IdentityMap maps [0, bytes) virtual → physical 1:1 with the given flags,
// using superpages where alignment allows.
func (tb *TableBuilder) IdentityMap(bytes uint64, flags uint64) error {
	var addr uint64
	end := isa.PageRoundUp(bytes)
	for addr < end {
		if addr&(isa.MegaPageSize-1) == 0 && addr+isa.MegaPageSize <= end {
			if err := tb.MapSuper(addr, addr, flags); err != nil {
				return err
			}
			addr += isa.MegaPageSize
			continue
		}
		if err := tb.Map(addr, addr, flags); err != nil {
			return err
		}
		addr += isa.PageSize
	}
	return nil
}
