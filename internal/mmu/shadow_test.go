package mmu

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/tlb"
)

// entryCount returns the number of live derived entries under root.
func entryCount(e *Engine, root uint64) int {
	if s := e.find(root); s != nil {
		return s.entries.n
	}
	return 0
}

// pairsFor counts the reverse-map pairs of root's space that name vpn.
func pairsFor(e *Engine, root, vpn uint64) int {
	n := 0
	if s := e.find(root); s != nil {
		for _, sl := range s.rmap.slots {
			if sl.key != 0 && (sl.key-1)&(rmapHead<<1-1) == vpn {
				n++
			}
		}
	}
	return n
}

// sharedRoots builds a space in which n distinct root table pages (gfns 3..)
// share one host frame, so thousands of roots cost one frame. Every root maps
// va 0x1000 → gfn 0 through the same mid (gfn 2) and leaf (gfn 1) tables.
func sharedRoots(t *testing.T, n int) (*mem.GuestPhys, []uint64) {
	t.Helper()
	pool := mem.NewPool(8)
	g := mem.NewGuestPhys(pool, uint64(n+3)*isa.PageSize)
	for gfn := uint64(0); gfn < 3; gfn++ {
		if err := g.Populate(gfn); err != nil {
			t.Fatal(err)
		}
	}
	g.WriteUintPriv(2<<isa.PageShift, 8, isa.MakePTE(1, isa.PTEValid))
	g.WriteUintPriv(1<<isa.PageShift+8, 8, isa.MakePTE(0, isa.PTEValid|isa.PTERead|isa.PTEWrite))
	hfn, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var pte [8]byte
	binary.LittleEndian.PutUint64(pte[:], isa.MakePTE(2, isa.PTEValid))
	pool.WriteAt(hfn, 0, pte[:])
	roots := make([]uint64, n)
	for i := range roots {
		roots[i] = uint64(3 + i)
		if i > 0 {
			pool.IncRef(hfn)
		}
		g.MapShared(roots[i], hfn)
	}
	return g, roots
}

// TestShadowFootprintBounded drives the two ways a guest could grow the
// engine's host memory: refilling one page forever (SFENCE.VMA va + touch)
// and cycling satp through fresh roots.
func TestShadowFootprintBounded(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	e := NewEngine(g)
	const va = 0x5000
	iters := 1_000_000
	if raceEnabled {
		iters = 100_000
	}
	for i := 0; i < iters; i++ {
		e.FlushVA(root, va)
		if _, f := e.Fill(root, va, isa.AccRead, false); f != nil {
			t.Fatal(f)
		}
	}
	if n := pairsFor(e, root, va>>isa.PageShift); n > isa.PTLevels {
		t.Fatalf("reverse map holds %d pairs for the refilled vpn, want at most %d", n, isa.PTLevels)
	}
	if s := e.find(root); len(s.rmap.slots) > 8 || len(s.entries.slots) > 8 {
		t.Fatalf("tables grew: rmap %d slots, entries %d", len(s.rmap.slots), len(s.entries.slots))
	}

	g, roots := sharedRoots(t, 10_000)
	e = NewEngine(g)
	for _, r := range roots {
		if _, f := e.Fill(r, 0x1000, isa.AccRead, false); f != nil {
			t.Fatal(f)
		}
		if len(e.spaces) > maxSpaces || e.Stats.Spaces > maxSpaces {
			t.Fatalf("live spaces %d (gauge %d) above the cap %d", len(e.spaces), e.Stats.Spaces, maxSpaces)
		}
	}
	if want := uint64(len(roots) - maxSpaces); e.Stats.Evictions != want {
		t.Fatalf("evictions = %d, want %d", e.Stats.Evictions, want)
	}
}

// TestShadowSteadyStateAllocatesNothing pins the trap path's allocation
// budget at zero once the engine's tables are warm: the cycle a PT-churning
// guest drives (fill, PT write, refill, full flush, refill) plus one
// translation that misses the shadow tables.
func TestShadowSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	c := NewContext(g, StyleShadow)
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))
	e := c.Shadow
	const va = 0x5000
	wr, werr := Walk(g, root, va)
	if werr != nil {
		t.Fatal(werr)
	}
	leaf := wr.Path[wr.Plen-1]
	fill := func(va uint64) {
		if _, f := e.Fill(root, va, isa.AccRead, false); f != nil {
			t.Fatal(f)
		}
	}
	cycle := func() {
		fill(va)
		fill(0x6000)
		for _, vpn := range e.InvalidatePTWrite(leaf) {
			c.TLB.FlushPageAllASIDs(vpn << isa.PageShift)
		}
		g.WriteUintPriv(wr.PTEAddr, 8, wr.PTE)
		fill(va)
		e.FlushSpace(root)
		fill(va)
		if _, _, f := c.Translate(0x9000, isa.AccRead, false); f == nil || f.Kind != FaultShadowMiss {
			t.Fatalf("want a shadow miss, got %v", f)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state trap cycle allocates %v times per run", n)
	}
}

// TestShadowEviction checks the space cap on its own: the victim is the
// least recently activated space, its translation leaves the TLB with it,
// its page-table pages stay tracked and protected until a write arrives, and
// refilling under its root rebuilds the same entry at the same cost.
func TestShadowEviction(t *testing.T) {
	g, roots := sharedRoots(t, maxSpaces+1)
	c := NewContext(g, StyleShadow)
	e := c.Shadow
	victim := roots[1]
	const victimASID = 7
	var firstRefs int
	var want ShadowEntry
	for _, r := range roots[:maxSpaces] {
		refs, f := e.Fill(r, 0x1000, isa.AccRead, false)
		if f != nil {
			t.Fatal(f)
		}
		if r == victim {
			firstRefs = refs
			want, _ = e.Lookup(r, 0x1000)
			c.SetSatp(isa.MakeSatp(isa.SatpModePaged, victimASID, victim))
			if _, _, f := c.Translate(0x1000, isa.AccRead, false); f != nil {
				t.Fatal(f)
			}
		}
	}
	if _, ok := c.TLB.Lookup(victimASID, 0x1000); !ok {
		t.Fatal("the victim's translation must be in the TLB before the eviction")
	}
	e.Lookup(roots[0], 0x1000) // roots[0] is now more recent than the victim
	if _, f := e.Fill(roots[maxSpaces], 0x1000, isa.AccRead, false); f != nil {
		t.Fatal(f)
	}
	if e.Stats.Evictions != 1 || e.Stats.Spaces != maxSpaces {
		t.Fatalf("stats after one eviction: %+v", e.Stats)
	}
	if _, ok := c.TLB.Lookup(victimASID, 0x1000); ok {
		t.Fatal("a later write to the victim's tables finds no pair to flush by: the eviction must flush the TLB")
	}
	for _, r := range roots {
		if _, ok := e.Lookup(r, 0x1000); ok == (r == victim) {
			t.Fatalf("root %d: live = %v, victim is %d", r, ok, victim)
		}
	}
	if !e.IsPTPage(victim) || !g.WriteProtected(victim) {
		t.Fatal("the victim's root page must stay tracked and protected until written")
	}
	fillRefs := e.Stats.FillRefs
	refs, f := e.Fill(victim, 0x1000, isa.AccRead, false)
	if f != nil {
		t.Fatal(f)
	}
	if got, _ := e.Lookup(victim, 0x1000); got != want || refs != firstRefs || e.Stats.FillRefs-fillRefs != uint64(firstRefs) {
		t.Fatalf("refill after eviction: entry %+v refs %d, want %+v refs %d", got, refs, want, firstRefs)
	}
	if e.Stats.Evictions != 2 {
		t.Fatalf("refilling the victim evicts the next-oldest: evictions = %d", e.Stats.Evictions)
	}
	e.InvalidatePTWrite(victim)
	if e.IsPTPage(victim) || g.WriteProtected(victim) {
		t.Fatal("a write must release the victim's root page")
	}
}

// TestTableMatchesMap drives the open-addressed table against a Go map
// through random puts, deletes (whose backward shifts must keep every other
// key findable) and clears.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb table
	ref := map[uint64]uint64{}
	for i := 0; i < 200_000; i++ {
		k := uint64(rng.Intn(300)) << uint(rng.Intn(3)*20)
		switch op := rng.Intn(100); {
		case op < 50:
			tb.put(k, uint64(i))
			ref[k] = uint64(i)
		case op < 95:
			v, ok := tb.del(k)
			if rv, rok := ref[k]; ok != rok || v != rv {
				t.Fatalf("op %d: del(%#x) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
			delete(ref, k)
		case op == 99:
			tb.clear()
			ref = map[uint64]uint64{}
		}
		v, ok := tb.get(k)
		if rv, rok := ref[k]; ok != rok || v != rv {
			t.Fatalf("op %d: get(%#x) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
		}
		if tb.n != len(ref) {
			t.Fatalf("op %d: n = %d, want %d", i, tb.n, len(ref))
		}
	}
	for k, v := range ref {
		if got, ok := tb.get(k); !ok || got != v {
			t.Fatalf("get(%#x) = %d,%v want %d", k, got, ok, v)
		}
	}
}

// mapEngine is the map-based shadow engine the table-based Engine replaced,
// kept as the oracle for FuzzShadowEngine: the same fill, write-protect and
// invalidation semantics, written the obvious way.
type mapEngine struct {
	g       *mem.GuestPhys
	spaces  map[uint64]*mapSpace
	ptUsers map[uint64]map[uint64]struct{}
	Stats   EngineStats
}

type mapSpace struct {
	entries map[uint64]ShadowEntry
	derived map[uint64][]uint64
}

func newMapEngine(g *mem.GuestPhys) *mapEngine {
	return &mapEngine{g: g, spaces: map[uint64]*mapSpace{}, ptUsers: map[uint64]map[uint64]struct{}{}}
}

func (e *mapEngine) Lookup(root, va uint64) (ShadowEntry, bool) {
	if s := e.spaces[root]; s != nil {
		ent, ok := s.entries[va>>isa.PageShift]
		return ent, ok
	}
	return ShadowEntry{}, false
}

func (e *mapEngine) Fill(root, va uint64, acc isa.Access, userMode bool) (int, *Fault) {
	wr, werr := Walk(e.g, root, va)
	if werr != nil {
		if werr.Fault != nil {
			return wr.Refs, &Fault{Kind: FaultHost, VA: va, Mem: werr.Fault}
		}
		return wr.Refs, &Fault{Kind: FaultGuest, Cause: isa.PageFaultCause(acc), VA: va}
	}
	need := map[isa.Access]uint64{isa.AccRead: isa.PTERead, isa.AccWrite: isa.PTEWrite}[acc]
	if need == 0 {
		need = isa.PTEExec
	}
	if userMode && wr.PTE&isa.PTEUser == 0 || wr.PTE&need == 0 {
		return wr.Refs, &Fault{Kind: FaultGuest, Cause: isa.PageFaultCause(acc), VA: va}
	}
	s := e.spaces[root]
	if s == nil {
		s = &mapSpace{entries: map[uint64]ShadowEntry{}, derived: map[uint64][]uint64{}}
		e.spaces[root] = s
		e.Stats.Spaces++
	}
	vpn := va >> isa.PageShift
	s.entries[vpn] = ShadowEntry{PPN: wr.GPA >> isa.PageShift, Perms: tlb.PermsFromPTE(wr.PTE), Global: wr.PTE&isa.PTEGlobal != 0}
	for _, ptGfn := range wr.Path[:wr.Plen] {
		s.derived[ptGfn] = append(s.derived[ptGfn], vpn)
		if e.ptUsers[ptGfn] == nil {
			e.ptUsers[ptGfn] = map[uint64]struct{}{}
		}
		e.ptUsers[ptGfn][root] = struct{}{}
		if !e.g.WriteProtected(ptGfn) {
			e.g.WriteProtect(ptGfn, true)
			e.Stats.WPInstalls++
		}
	}
	e.Stats.Fills++
	e.Stats.FillRefs += uint64(wr.Refs)
	return wr.Refs, nil
}

func (e *mapEngine) IsPTPage(gfn uint64) bool { return len(e.ptUsers[gfn]) > 0 }

func (e *mapEngine) InvalidatePTWrite(gfn uint64) (flush []uint64) {
	e.Stats.PTWriteTraps++
	for root := range e.ptUsers[gfn] {
		s := e.spaces[root]
		for _, vpn := range s.derived[gfn] {
			if _, live := s.entries[vpn]; live {
				delete(s.entries, vpn)
				e.Stats.Invalidations++
				flush = append(flush, vpn)
			}
		}
		delete(s.derived, gfn)
	}
	delete(e.ptUsers, gfn)
	e.g.WriteProtect(gfn, false)
	return flush
}

func (e *mapEngine) FlushVA(root, va uint64) {
	if s := e.spaces[root]; s != nil {
		delete(s.entries, va>>isa.PageShift)
	}
}

func (e *mapEngine) FlushSpace(root uint64) {
	if s := e.spaces[root]; s != nil {
		e.Stats.SpaceFlushes++
		s.entries = map[uint64]ShadowEntry{}
		s.derived = map[uint64][]uint64{}
	}
}

func (e *mapEngine) DropAll() {
	for gfn := range e.ptUsers {
		e.g.WriteProtect(gfn, false)
	}
	e.spaces = map[uint64]*mapSpace{}
	e.ptUsers = map[uint64]map[uint64]struct{}{}
	e.Stats.Spaces = 0
}

// Fuzz guest layout: gfns 0–3 are roots, 4–7 mid tables, 8–11 leaf tables,
// 12–31 data. Fuzzed PTE rewrites may point any table slot at any of gfns
// 0–15, so tables alias, cycle and turn into data and back.
const (
	fuzzPages   = 32
	fuzzTables  = 16
	fuzzEntries = 4 // the first 4 slots of each table are in play
)

var fuzzRoots = []uint64{0, 1, 2, 3, 12, 13}

// fuzzVA spreads b over fuzzEntries³ virtual pages.
func fuzzVA(b byte) uint64 {
	return uint64(b&3)<<30 | uint64(b>>2&3)<<21 | uint64(b>>4&3)<<12
}

func newFuzzGuest(t *testing.T) *mem.GuestPhys {
	g := newSpace(t, fuzzPages)
	for tab := uint64(0); tab < 12; tab++ {
		for j := uint64(0); j < fuzzEntries; j++ {
			var pte uint64
			switch {
			case tab < 4:
				pte = isa.MakePTE(4+(tab+j)%4, isa.PTEValid)
			case tab < 8:
				pte = isa.MakePTE(8+(tab+j)%4, isa.PTEValid)
			default:
				pte = isa.MakePTE(12+(tab*4+j)%20, isa.PTEValid|isa.PTERead|isa.PTEWrite|isa.PTEExec|isa.PTEUser|isa.PTEAcc|isa.PTEDirty)
			}
			g.WriteUintPriv(tab<<isa.PageShift+j*8, 8, pte)
		}
	}
	return g
}

// FuzzShadowEngine drives fuzz-decoded sequences of fills, lookups, flushes,
// PT writes, drops and guest PTE rewrites through the Engine and through
// mapEngine, each over its own copy of the guest. After every operation the
// two must agree on every lookup, on the multiset of pages each PT write
// invalidates, on the write protection and PT-page verdict of every gfn,
// and on every statistic. Each op is four bytes: opcode, then a, b, c.
func FuzzShadowEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 4, 8, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 2, 0, 5, 0, 0, 0, 5, 0, 4, 0, 0, 0, 0, 0, 5, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 6, 8, 1, 6, 0, 0, 1, 0, 3, 0, 0, 0, 6, 4, 0, 1})
	f.Add([]byte{0, 2, 9, 3, 0, 3, 9, 4, 5, 0, 0, 0, 0, 2, 9, 0, 6, 0, 0, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		gEng, gOra := newFuzzGuest(t), newFuzzGuest(t)
		e, o := NewEngine(gEng), newMapEngine(gOra)
		for i := 0; i+3 < len(data) && i < 4*256; i += 4 {
			op, a, b, c := data[i]%8, data[i+1], data[i+2], data[i+3]
			root, va := fuzzRoots[int(a)%len(fuzzRoots)], fuzzVA(b)
			switch op {
			case 0, 1:
				acc, user := isa.Access(c%3), c&4 != 0
				re, fe := e.Fill(root, va, acc, user)
				ro, fo := o.Fill(root, va, acc, user)
				if re != ro || (fe == nil) != (fo == nil) || fe != nil && (fe.Kind != fo.Kind || fe.Cause != fo.Cause || fe.VA != fo.VA) {
					t.Fatalf("op %d: Fill(%d, %#x) = %d,%v; oracle %d,%v", i/4, root, va, re, fe, ro, fo)
				}
			case 2:
				e.FlushVA(root, va)
				o.FlushVA(root, va)
			case 3:
				e.FlushSpace(root)
				o.FlushSpace(root)
			case 4:
				comparePTWrite(t, i/4, e, o, uint64(a)%fuzzTables)
			case 5:
				e.DropAll()
				o.DropAll()
			default:
				// A guest store to a table slot, trapped and emulated as the
				// VMM does when the page is tracked.
				gfn := uint64(a) % fuzzTables
				gpa := gfn<<isa.PageShift | uint64(b)%fuzzEntries*8
				target := uint64(b) >> 2 % fuzzTables
				var pte uint64
				switch c & 3 {
				case 1:
					pte = isa.MakePTE(target, isa.PTEValid)
				case 2, 3:
					perms := uint64(c>>2) << 1 & (isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEUser | isa.PTEGlobal)
					pte = isa.MakePTE(target, isa.PTEValid|perms)
				}
				if e.IsPTPage(gfn) {
					comparePTWrite(t, i/4, e, o, gfn)
				}
				gEng.WriteUintPriv(gpa, 8, pte)
				gOra.WriteUintPriv(gpa, 8, pte)
			}
			compareEngines(t, i/4, e, o, gEng, gOra)
		}
	})
}

func comparePTWrite(t *testing.T, op int, e *Engine, o *mapEngine, gfn uint64) {
	t.Helper()
	fe := slices.Clone(e.InvalidatePTWrite(gfn))
	fo := o.InvalidatePTWrite(gfn)
	slices.Sort(fe)
	slices.Sort(fo)
	if !slices.Equal(fe, fo) {
		t.Fatalf("op %d: InvalidatePTWrite(%d) = %v; oracle %v", op, gfn, fe, fo)
	}
}

func compareEngines(t *testing.T, op int, e *Engine, o *mapEngine, gEng, gOra *mem.GuestPhys) {
	t.Helper()
	for _, root := range fuzzRoots {
		for b := 0; b < 64; b++ {
			va := fuzzVA(byte(b))
			se, oke := e.Lookup(root, va)
			so, oko := o.Lookup(root, va)
			if se != so || oke != oko {
				t.Fatalf("op %d: Lookup(%d, %#x) = %+v,%v; oracle %+v,%v", op, root, va, se, oke, so, oko)
			}
		}
	}
	for gfn := uint64(0); gfn < fuzzPages; gfn++ {
		if gEng.WriteProtected(gfn) != gOra.WriteProtected(gfn) || e.IsPTPage(gfn) != o.IsPTPage(gfn) {
			t.Fatalf("op %d: gfn %d: protected %v/%v, PT page %v/%v", op, gfn,
				gEng.WriteProtected(gfn), gOra.WriteProtected(gfn), e.IsPTPage(gfn), o.IsPTPage(gfn))
		}
	}
	if e.Stats != o.Stats {
		t.Fatalf("op %d: stats %+v; oracle %+v", op, e.Stats, o.Stats)
	}
}
