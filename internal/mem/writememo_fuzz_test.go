package mem

import (
	"bytes"
	"testing"

	"govisor/internal/isa"
)

// fuzzSide is one arm of the write-memo differential fuzz: a pool with a
// primary space (the one being stored into) and a peer space for dedup-style
// sharing. The memo arm stores through WriteUintMemo/WriteUintFast and runs
// DMA through the memos; the oracle arm stores through the unmemoized
// WriteUint and pins DMA to the reference arm (SetReferenceDMA). Everything
// else is driven identically, so any observable divergence is a memo bug.
type fuzzSide struct {
	pool *Pool
	g    *GuestPhys
	peer *GuestPhys
	memo bool
}

const fuzzPages = 8

func newFuzzSide(memo bool) *fuzzSide {
	p := NewPool(512)
	s := &fuzzSide{
		pool: p,
		g:    NewGuestPhys(p, fuzzPages*isa.PageSize),
		peer: NewGuestPhys(p, fuzzPages*isa.PageSize),
		memo: memo,
	}
	if !memo {
		s.g.SetReferenceDMA()
	}
	return s
}

func (s *fuzzSide) store(gpa uint64, v uint64) *Fault {
	if s.memo {
		return s.g.WriteUintMemo(gpa, 8, v)
	}
	return s.g.WriteUint(gpa, 8, v)
}

// FuzzWriteMemo drives randomized interleavings of stores, CollectDirty,
// write-protect flips, COW sharing (KSM-merge shape), Unmap, Populate and
// DMA (WriteSpan, ReadSpan, ReadRaw — sharing the memos with the stores)
// against a memo-off oracle. After every operation the two arms must agree
// on fault kinds, read values and dirty sets; at the end, on every page's
// content, presence, dirty bit and the guest-visible memory statistics.
// Opcodes 0–7 are the store-path ops the checked-in corpus was written
// for; the DMA ops are 8–10.
func FuzzWriteMemo(f *testing.F) {
	// Seeds covering each opcode and a few adversarial interleavings
	// (store→collect→store, share→store, protect→store→unprotect→store).
	f.Add([]byte{0, 1, 8, 0, 2, 0, 0, 1, 16, 7, 0, 0})
	f.Add([]byte{6, 2, 0, 0, 2, 8, 4, 2, 3, 0, 2, 24, 7, 2, 0})
	f.Add([]byte{6, 3, 0, 3, 3, 0, 0, 3, 8, 3, 3, 1, 0, 3, 8, 7, 3, 0})
	f.Add([]byte{6, 1, 0, 6, 2, 0, 0, 1, 8, 4, 1, 2, 0, 2, 8, 7, 2, 0, 5, 1, 0, 0, 1, 8})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 8, 2, 0, 0, 0, 0, 16, 2, 0, 0})
	// DMA after a store armed the slot, over a COW flip, and across pages.
	f.Add([]byte{0, 1, 8, 8, 1, 3, 7, 1, 8, 9, 1, 5, 4, 1, 1, 8, 1, 0, 10, 1, 0, 2, 0, 0, 8, 7, 200, 10, 7, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		memo := newFuzzSide(true)
		oracle := newFuzzSide(false)
		sides := []*fuzzSide{memo, oracle}

		var mDirty, oDirty []uint64
		bufM := make([]byte, 2*isa.PageSize)
		bufO := make([]byte, 2*isa.PageSize)
		for i := 0; i+2 < len(data) && i < 3*512; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			gfn := uint64(a) % fuzzPages
			off := uint64(b) % (isa.PageSize / 8) * 8
			gpa := gfn*isa.PageSize + off
			val := uint64(i)<<8 | uint64(b)
			// DMA spans: up to two pages, so some cross a page boundary and
			// some run off the end of RAM.
			span := 1 + (int(b)*61+i)%(2*isa.PageSize)
			switch op % 11 {
			case 0, 1: // store (double weight: the hot op)
				fm := memo.store(gpa, val)
				fo := oracle.store(gpa, val)
				if (fm == nil) != (fo == nil) || (fm != nil && fm.Kind != fo.Kind) {
					t.Fatalf("op %d: store fault diverged: memo %v oracle %v", i, fm, fo)
				}
			case 2: // CollectDirty
				mDirty = memo.g.CollectDirty(mDirty[:0])
				oDirty = oracle.g.CollectDirty(oDirty[:0])
				if len(mDirty) != len(oDirty) {
					t.Fatalf("op %d: dirty sets diverged: %v vs %v", i, mDirty, oDirty)
				}
				for j := range mDirty {
					if mDirty[j] != oDirty[j] {
						t.Fatalf("op %d: dirty sets diverged: %v vs %v", i, mDirty, oDirty)
					}
				}
			case 3: // write-protect flip
				for _, s := range sides {
					s.g.WriteProtect(gfn, b%2 == 0)
				}
			case 4: // KSM-merge shape: peer maps the primary's frame, primary flips COW
				peerGfn := uint64(b) % fuzzPages
				for _, s := range sides {
					canon := s.g.Frame(gfn)
					if canon == NoFrame {
						continue
					}
					s.pool.IncRef(canon)
					s.peer.MapShared(peerGfn, canon)
					s.g.MarkCOWIfMapped(gfn, canon)
				}
			case 5: // balloon-style unmap
				for _, s := range sides {
					s.g.Unmap(gfn)
				}
			case 6: // demand populate
				em := memo.g.Populate(gfn)
				eo := oracle.g.Populate(gfn)
				if (em == nil) != (eo == nil) {
					t.Fatalf("op %d: populate diverged: %v vs %v", i, em, eo)
				}
			case 7: // read (exercises the read memo against coalesced bumps)
				vm, fm := memo.g.ReadUint(gpa, 8)
				vo, fo := oracle.g.ReadUint(gpa, 8)
				if (fm == nil) != (fo == nil) || vm != vo {
					t.Fatalf("op %d: read diverged: %#x/%v vs %#x/%v", i, vm, fm, vo, fo)
				}
			case 8: // DMA write
				for j := range bufM[:span] {
					bufM[j] = byte(i + j)
				}
				fm := memo.g.WriteSpan(gpa, bufM[:span])
				fo := oracle.g.WriteSpan(gpa, bufM[:span])
				if (fm == nil) != (fo == nil) || (fm != nil && fm.Kind != fo.Kind) {
					t.Fatalf("op %d: span write fault diverged: memo %v oracle %v", i, fm, fo)
				}
			case 9: // DMA read
				fm := memo.g.ReadSpan(gpa, bufM[:span])
				fo := oracle.g.ReadSpan(gpa, bufO[:span])
				if (fm == nil) != (fo == nil) || (fm != nil && fm.Kind != fo.Kind) {
					t.Fatalf("op %d: span read fault diverged: memo %v oracle %v", i, fm, fo)
				}
				if fm == nil && !bytes.Equal(bufM[:span], bufO[:span]) {
					t.Fatalf("op %d: span read diverged", i)
				}
			case 10: // page copy (migration, snapshots, icache capture)
				memo.g.ReadRaw(gfn, bufM[:isa.PageSize])
				oracle.g.ReadRaw(gfn, bufO[:isa.PageSize])
				if !bytes.Equal(bufM[:isa.PageSize], bufO[:isa.PageSize]) {
					t.Fatalf("op %d: ReadRaw of gfn %d diverged", i, gfn)
				}
			}
		}

		// Final state: both arms must be indistinguishable in everything
		// guest-visible.
		mg, og := memo.g, oracle.g
		if mg.Present() != og.Present() || mg.DirtySets != og.DirtySets ||
			mg.COWBreaks != og.COWBreaks || mg.DemandFills != og.DemandFills {
			t.Fatalf("stats diverged: memo present=%d dirty=%d cow=%d fills=%d, oracle present=%d dirty=%d cow=%d fills=%d",
				mg.Present(), mg.DirtySets, mg.COWBreaks, mg.DemandFills,
				og.Present(), og.DirtySets, og.COWBreaks, og.DemandFills)
		}
		bufM, bufO = bufM[:isa.PageSize], bufO[:isa.PageSize]
		for gfn := uint64(0); gfn < fuzzPages; gfn++ {
			if (mg.Frame(gfn) == NoFrame) != (og.Frame(gfn) == NoFrame) {
				t.Fatalf("gfn %d: presence diverged", gfn)
			}
			if mg.Dirty(gfn) != og.Dirty(gfn) {
				t.Fatalf("gfn %d: dirty bit diverged", gfn)
			}
			mg.ReadRaw(gfn, bufM)
			og.ReadRaw(gfn, bufO)
			if !bytes.Equal(bufM, bufO) {
				t.Fatalf("gfn %d: page content diverged", gfn)
			}
			memo.peer.ReadRaw(gfn, bufM)
			oracle.peer.ReadRaw(gfn, bufO)
			if !bytes.Equal(bufM, bufO) {
				t.Fatalf("peer gfn %d: page content diverged (memoized store leaked through a shared frame?)", gfn)
			}
		}
	})
}
