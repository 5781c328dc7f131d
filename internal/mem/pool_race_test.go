package mem

import (
	"sync"
	"testing"

	"govisor/internal/isa"
)

// TestShardedPoolExactCapacity: striping must not change capacity semantics —
// exactly capacity frames allocate, with dense frame numbers, for shard
// counts that do and do not divide the capacity.
func TestShardedPoolExactCapacity(t *testing.T) {
	for _, tc := range []struct {
		capacity uint64
		shards   int
	}{{40, 1}, {40, 8}, {41, 8}, {7, 8}, {256, 3}} {
		p := NewPoolSharded(tc.capacity, tc.shards)
		seen := make(map[uint64]bool)
		for i := uint64(0); i < tc.capacity; i++ {
			hfn, err := p.Alloc()
			if err != nil {
				t.Fatalf("cap=%d shards=%d: alloc %d failed: %v", tc.capacity, tc.shards, i, err)
			}
			if hfn >= tc.capacity {
				t.Fatalf("cap=%d shards=%d: hfn %d not dense", tc.capacity, tc.shards, hfn)
			}
			if seen[hfn] {
				t.Fatalf("cap=%d shards=%d: hfn %d handed out twice", tc.capacity, tc.shards, hfn)
			}
			seen[hfn] = true
		}
		if _, err := p.Alloc(); err != ErrOutOfFrames {
			t.Fatalf("cap=%d shards=%d: over-capacity alloc gave %v", tc.capacity, tc.shards, err)
		}
		if p.InUse() != tc.capacity || p.Free() != 0 {
			t.Fatalf("cap=%d shards=%d: inUse=%d free=%d", tc.capacity, tc.shards, p.InUse(), p.Free())
		}
	}
}

// TestShardedPoolRaceStress hammers one pool from many goroutines the way a
// parallel host does: each goroutine owns a GuestPhys (single-owner, as the
// epoch protocol guarantees) and churns demand fills, stores, unmaps and
// COW breaks of frames pre-shared across all spaces. Workers w and w+4 share
// a stripe, so one's DecRef-to-zero retires backing arrays while the other's
// materializing writes pop them. Run under -race this is the data-race proof
// for the shard locking, the atomic budget, the atomic page-version counters
// and the hand-over of recycled arrays.
func TestShardedPoolRaceStress(t *testing.T) {
	const (
		workers  = 8
		pages    = 64
		rounds   = 400
		capacity = workers*pages + 128 + workers
	)
	p := NewPoolSharded(capacity, 4)
	spaces := make([]*GuestPhys, workers)
	for i := range spaces {
		g := NewGuestPhys(p, pages<<isa.PageShift)
		g.SetAllocHint(i)
		spaces[i] = g
	}
	// Pre-share one canonical frame into every space (the dedup outcome),
	// so concurrent first writes race through BreakCOW on the shared frame.
	canonical, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.WriteAt(canonical, 0, []byte{0xAB})
	for _, g := range spaces {
		p.IncRef(canonical)
		g.MapShared(0, canonical)
	}
	p.DecRef(canonical) // spaces now hold the only references

	dirt := fullPage(0xEE)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := spaces[w]
			for r := 0; r < rounds; r++ {
				// COW break on the pre-shared page (first round), then
				// plain stores bumping versions.
				if f := g.WriteUint(0, 8, uint64(r)); f != nil {
					t.Errorf("worker %d: shared write: %v", w, f)
					return
				}
				gfn := uint64(1 + (r % (pages - 1)))
				if err := g.Populate(gfn); err != nil {
					t.Errorf("worker %d: populate: %v", w, err)
					return
				}
				if f := g.WriteUint(gfn<<isa.PageShift, 8, uint64(w)<<32|uint64(r)); f != nil {
					t.Errorf("worker %d: write: %v", w, f)
					return
				}
				if v := g.PageVersion(gfn); v == 0 {
					t.Errorf("worker %d: version not bumped", w)
					return
				}
				if r%7 == 0 {
					g.Unmap(gfn) // exercise free-list churn across shards
				}
				// Same-stripe churn: a partial write pops a retired array
				// (the partner's or our own), which must read as zeros
				// around the byte written; the free retires it again.
				hfn, err := p.AllocNear(w)
				if err != nil {
					t.Errorf("worker %d: alloc: %v", w, err)
					return
				}
				p.WriteAt(hfn, 8, []byte{byte(r) | 1})
				var got [16]byte
				p.ReadAt(hfn, 0, got[:])
				if got != [16]byte{8: byte(r) | 1} {
					t.Errorf("worker %d: recycled frame reads %v", w, got)
					return
				}
				p.WriteAt(hfn, 0, dirt) // retire an array the next pop must clear
				p.DecRef(hfn)
			}
		}(w)
	}
	wg.Wait()
	if p.Recycled() == 0 {
		t.Fatal("no backing array was ever recycled — the stress lost its teeth")
	}

	// Every space must own a private copy of page 0 with its own last value.
	for w, g := range spaces {
		if g.IsCOW(0) {
			t.Fatalf("space %d still COW after write", w)
		}
		v, f := g.ReadUint(0, 8)
		if f != nil || v != rounds-1 {
			t.Fatalf("space %d: page0 = %d (%v)", w, v, f)
		}
	}
	if p.InUse() > capacity {
		t.Fatalf("pool overran budget: %d > %d", p.InUse(), capacity)
	}
	// The last holder of the shared frame writes it in place, so the break
	// count is at least workers-1 (exact value depends on the race's order).
	if p.COWBreaks() < workers-1 {
		t.Fatalf("expected ≥%d COW breaks, got %d", workers-1, p.COWBreaks())
	}
}

// TestWriteMemoEpochRaceStress is the write-memo concurrency hammer: several
// VMs (single-owner spaces, as the epoch protocol guarantees) hammer
// memoized stores over one sharded pool, with epoch-barrier phases between
// rounds performing CollectDirty over every space and KSM-style merges of
// content-identical pages — so the following round's memoized stores must
// COW-break the shared frames. A free-running observer goroutine probes
// WriteEpoch and PageVersion across all spaces the whole time, the way a
// scanner probes for stability. Run under -race this exercises the write-
// epoch counter's atomicity, the armed-flag disarm handshake in PageVersion,
// and the atomic page versions underneath coalesced bumps.
func TestWriteMemoEpochRaceStress(t *testing.T) {
	const (
		workers  = 6
		pages    = 16
		rounds   = 120
		capacity = workers*pages + 256
	)
	p := NewPoolSharded(capacity, 4)
	spaces := make([]*GuestPhys, workers)
	for i := range spaces {
		g := NewGuestPhys(p, pages<<isa.PageShift)
		g.SetAllocHint(i)
		spaces[i] = g
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() { // concurrent stability prober
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, g := range spaces {
				_ = g.WriteEpoch()
				for gfn := uint64(0); gfn < pages; gfn += 3 {
					_ = g.PageVersion(gfn)
				}
			}
		}
	}()

	dirty := make([]uint64, 0, pages)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := range spaces {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := spaces[w]
				for k := 0; k < 32; k++ {
					gfn := uint64(k) % pages
					// Page 1 gets identical content on every space so the
					// barrier's merge pass always has candidates; the rest
					// carry worker-unique values to catch cross-VM leaks.
					val := uint64(r)<<16 | uint64(k)
					if gfn != 1 {
						val |= uint64(w+1) << 48
					}
					if f := g.WriteUintMemo(gfn<<isa.PageShift|uint64(k%8)*8, 8, val); f != nil {
						t.Errorf("worker %d round %d: store: %v", w, r, f)
						return
					}
					if v := g.PageVersion(gfn); v == 0 {
						t.Errorf("worker %d: version never advanced", w)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		// Epoch barrier: dirty-log collection over every space, then a
		// KSM-style merge of page 1 into space 0's frame.
		for _, g := range spaces {
			dirty = g.CollectDirty(dirty[:0])
			if r > 0 && len(dirty) == 0 {
				t.Fatal("a round of stores left no dirty pages")
			}
		}
		canon := spaces[0].Frame(1)
		for _, g := range spaces[1:] {
			if v := g.Frame(1); v == NoFrame || v == canon {
				continue
			}
			p.IncRef(canon)
			g.MapShared(1, canon)
		}
		spaces[0].MarkCOWIfMapped(1, canon)
	}
	close(done)

	// Every space must have broken back out of the final merge by its last
	// round of stores... except round rounds-1's merge, which nobody wrote
	// after. What must hold: worker-unique pages never leaked across VMs.
	for w, g := range spaces {
		for gfn := uint64(0); gfn < pages; gfn++ {
			if gfn == 1 {
				continue
			}
			v, f := g.ReadUint(gfn<<isa.PageShift, 8)
			if f != nil {
				t.Fatalf("space %d gfn %d: %v", w, gfn, f)
			}
			if v != 0 && v>>48 != uint64(w+1) {
				t.Fatalf("space %d gfn %d holds %#x — another VM's store leaked in", w, gfn, v)
			}
		}
	}
	if p.COWBreaks() == 0 {
		t.Fatal("the merge/store churn never broke COW — the stress lost its teeth")
	}
	if p.InUse() > capacity {
		t.Fatalf("pool overran budget: %d > %d", p.InUse(), capacity)
	}
}

// TestShardedPoolConcurrentExhaustion: when many allocators fight over the
// last frames, the pool must hand out exactly the remaining budget and fail
// the rest — never oversubscribe, never deadlock.
func TestShardedPoolConcurrentExhaustion(t *testing.T) {
	const capacity = 100
	p := NewPoolSharded(capacity, 8)
	var wg sync.WaitGroup
	got := make([]int, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if _, err := p.AllocNear(w); err != nil {
					return
				}
				got[w]++
			}
		}(w)
	}
	wg.Wait()
	var total int
	for _, n := range got {
		total += n
	}
	if total != capacity {
		t.Fatalf("allocated %d frames from a %d-frame pool", total, capacity)
	}
	if p.Free() != 0 {
		t.Fatalf("free = %d after exhaustion", p.Free())
	}
}
