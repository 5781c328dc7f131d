package mmu

import (
	"math/rand"
	"reflect"
	"testing"

	"govisor/internal/isa"
)

// TestCheckFetchSnapReadOnlyParity drives a context through a randomized
// stream of fetches, data churn, flushes and SATP rewrites. At every step the
// read-only validation (CheckFetchSnap) must (a) leave every statistic and
// the TLB untouched, and (b) agree exactly with ChainFetch's verdict on the
// same snapshot — the two halves evaluate the same conditions, and a
// disagreement would let the trace engine admit a pass whose boundary replay
// then fails (or worse, the reverse).
func TestCheckFetchSnapReadOnlyParity(t *testing.T) {
	g := newSpace(t, 128)
	root := buildIdentity(t, g, 64*isa.PageSize, 96,
		isa.PTERead|isa.PTEWrite|isa.PTEExec)
	c := NewContext(g, StyleDirect)
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))

	rng := rand.New(rand.NewSource(11))
	var snap FetchSnap
	var snapVA uint64
	var snapUser bool

	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(100); {
		case op < 40:
			// Fetch then (re)capture the snapshot under test.
			va := uint64(rng.Intn(4))<<isa.PageShift + uint64(rng.Intn(1024))*4
			user := rng.Intn(8) == 0
			if _, _, f := c.TranslateFetch(va, user); f == nil {
				snap, snapVA, snapUser = c.SnapFetch(), va, user
			}
		case op < 70:
			// Data access: TLB LRU churn and inserts under the snapshot.
			va := uint64(rng.Intn(64))<<isa.PageShift + uint64(rng.Intn(512))*8
			acc := isa.AccRead
			if rng.Intn(2) == 0 {
				acc = isa.AccWrite
			}
			c.Translate(va, acc, false)
		case op < 85:
			// Validate at a randomly perturbed (va, priv) — sometimes the
			// snapshot's own, sometimes a mismatch the check must reject.
			va, user := snapVA, snapUser
			if rng.Intn(3) == 0 {
				va += uint64(rng.Intn(3)) << isa.PageShift
			}
			if rng.Intn(4) == 0 {
				user = !user
			}
			stats, tlbStats := c.Stats, c.TLB.Stats
			gen := c.TLB.Gen()
			checked := c.CheckFetchSnap(&snap, va, user)
			if c.Stats != stats || c.TLB.Stats != tlbStats || c.TLB.Gen() != gen {
				t.Fatalf("step %d: CheckFetchSnap perturbed state: stats %+v -> %+v tlb %+v -> %+v",
					i, stats, c.Stats, tlbStats, c.TLB.Stats)
			}
			if chained := c.ChainFetch(&snap, va, user); chained != checked {
				t.Fatalf("step %d: verdicts split: CheckFetchSnap=%v ChainFetch=%v (va=%#x user=%v)",
					i, checked, chained, va, user)
			}
		case op < 95:
			// SFENCE of one page or the whole space: generation bump, so both
			// halves must start rejecting the snapshot together.
			va := uint64(rng.Intn(64)) << isa.PageShift
			if rng.Intn(4) == 0 {
				va = 0
			}
			c.Flush(va, 0)
		default:
			satp := isa.MakeSatp(isa.SatpModePaged, uint16(1+rng.Intn(2)), root)
			c.SetSatp(satp)
		}
	}
}

// replayOne is the independent reference for ReplayFetchSpan: the replay of
// one fetch, written out as its own per-fetch rule — fail unless the fetch
// memo covers va's page and, when paged, the TLB generation still matches;
// then one translation and one TLB Touch.
func replayOne(c *Context, va uint64) bool {
	m := &c.fetch
	if !m.valid || va>>isa.PageShift != m.vpn || m.paged && c.TLB.Gen() != m.gen {
		return false
	}
	c.Stats.Translations++
	if m.paged {
		c.TLB.Touch(m.entry)
	}
	return true
}

// TestReplayFetchSpanEquivalence proves the folded span replay bit-identical
// to its expansion: two identical contexts, one replaying n consecutive
// same-page fetches one at a time through replayOne, the other folding them
// into a single ReplayFetchSpan. Verdicts, translation counts and the TLB's
// clock, stamps and statistics must match at every step, across LRU churn
// and flushes that invalidate the memo underneath both.
func TestReplayFetchSpanEquivalence(t *testing.T) {
	build := func() *Context {
		g := newSpace(t, 128)
		root := buildIdentity(t, g, 64*isa.PageSize, 96,
			isa.PTERead|isa.PTEWrite|isa.PTEExec)
		c := NewContext(g, StyleDirect)
		c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))
		return c
	}
	ref, fold := build(), build()

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(100); {
		case op < 60:
			// A block entry (real fetch) then a span of replays.
			va := uint64(rng.Intn(4))<<isa.PageShift + uint64(rng.Intn(256))*4
			user := rng.Intn(8) == 0
			_, _, fr := ref.TranslateFetch(va, user)
			_, _, ff := fold.TranslateFetch(va, user)
			if (fr == nil) != (ff == nil) {
				t.Fatalf("step %d: entry fetch split: %v vs %v", i, fr, ff)
			}
			if fr != nil {
				break
			}
			// Spans never cross a page (blocks are per-page), so cap n at the
			// page edge like the callers do.
			maxN := (isa.PageSize - va&(isa.PageSize-1)) / 4
			if maxN > 64 {
				maxN = 64
			}
			n := uint64(1 + rng.Intn(int(maxN)))
			if rng.Intn(10) == 0 {
				// Flush between entry and replay: both sides must refuse the
				// whole span together, accounting nothing.
				ref.Flush(0, 0)
				fold.Flush(0, 0)
			}
			okRef := true
			for k := uint64(0); k < n && okRef; k++ {
				okRef = replayOne(ref, va+4*k)
			}
			okFold := fold.ReplayFetchSpan(va, n)
			if okRef != okFold {
				t.Fatalf("step %d: span verdict split: ref=%v fold=%v (va=%#x n=%d)", i, okRef, okFold, va, n)
			}
			if ref.Stats != fold.Stats {
				t.Fatalf("step %d: mmu stats diverged\nref  %+v\nfold %+v", i, ref.Stats, fold.Stats)
			}
			if !reflect.DeepEqual(ref.TLB, fold.TLB) {
				t.Fatalf("step %d: tlb diverged (clock, stamps or stats)\nref  %+v\nfold %+v", i, ref.TLB.Stats, fold.TLB.Stats)
			}
		case op < 85:
			// Data churn applied to both: LRU movement that a later span's
			// TouchN must reproduce exactly.
			va := uint64(rng.Intn(64))<<isa.PageShift + uint64(rng.Intn(512))*8
			acc := isa.AccRead
			if rng.Intn(2) == 0 {
				acc = isa.AccWrite
			}
			ref.Translate(va, acc, false)
			fold.Translate(va, acc, false)
		default:
			va := uint64(rng.Intn(64)) << isa.PageShift
			if rng.Intn(4) == 0 {
				va = 0
			}
			ref.Flush(va, 0)
			fold.Flush(va, 0)
		}
	}
	if ref.Stats != fold.Stats || ref.TLB.Stats != fold.TLB.Stats {
		t.Fatalf("final stats diverged\nref  %+v / %+v\nfold %+v / %+v",
			ref.Stats, ref.TLB.Stats, fold.Stats, fold.TLB.Stats)
	}
}
