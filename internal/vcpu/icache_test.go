package vcpu

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// words assembles raw instruction words into a loadable image.
func words(ins ...isa.Inst) []byte {
	img := make([]byte, 4*len(ins))
	for i, in := range ins {
		binary.LittleEndian.PutUint32(img[i*4:], isa.Encode(in))
	}
	return img
}

// smcProgram writes a replacement instruction over its own loop body between
// the first and second iteration:
//
//	pass 1 executes "addi a0, a0, 11", then stores the encoding of
//	"addi a0, a0, 100" over it; pass 2 must execute the new instruction.
//
// Final a0 is 111 iff the interpreter observes the store; a stale decoded
// block would compute 22.
func smcProgram() []byte {
	newWord := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 100})
	img := words(
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegZero, Imm: 0},  // 0x1000
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegZero, Imm: 0},  // 0x1004
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 11},   // 0x1008 target
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: 1},    // 0x100C
		isa.Inst{Op: isa.OpSLTI, Rd: isa.RegT0, Rs1: isa.RegS0, Imm: 2},    // 0x1010
		isa.Inst{Op: isa.OpBEQ, Rs1: isa.RegT0, Rs2: isa.RegZero, Imm: 16}, // 0x1014 → halt
		isa.Inst{Op: isa.OpLW, Rd: isa.RegT1, Rs1: isa.RegZero, Imm: 0x1030},
		isa.Inst{Op: isa.OpSW, Rs2: isa.RegT1, Rs1: isa.RegZero, Imm: 0x1008},
		isa.Inst{Op: isa.OpJAL, Rd: isa.RegZero, Imm: -24}, // 0x1020 → 0x1008
		isa.Inst{Op: isa.OpHALT}, // 0x1024
	)
	img = append(img, make([]byte, 0x1030-0x1000-len(img))...)
	var data [4]byte
	binary.LittleEndian.PutUint32(data[:], newWord)
	return append(img, data[:]...)
}

// TestICacheSelfModifyingCode: the decoded cache must observe stores to code
// pages (the per-page version bump) and re-predecode, exactly matching the
// reference interpreter.
func TestICacheSelfModifyingCode(t *testing.T) {
	cached, plain := newCPUPair(t, smcProgram(), nil)
	exC := runRecord(t, cached, 1_000_000)
	exP := runRecord(t, plain, 1_000_000)
	if exC.Reason != ExitHalt || exP.Reason != ExitHalt {
		t.Fatalf("exits: cached %v plain %v", exC, exP)
	}
	if got := cached.X[isa.RegA0]; got != 111 {
		t.Fatalf("cached a0 = %d, want 111 (stale decoded block?)", got)
	}
	if cached.X != plain.X || cached.Cycles != plain.Cycles ||
		cached.Instret != plain.Instret || cached.PC != plain.PC {
		t.Fatalf("state diverged: cached (a0=%d cyc=%d ret=%d) plain (a0=%d cyc=%d ret=%d)",
			cached.X[isa.RegA0], cached.Cycles, cached.Instret,
			plain.X[isa.RegA0], plain.Cycles, plain.Instret)
	}
	st := cached.ICache.Stats
	if st.Invalidations == 0 {
		t.Errorf("self-modifying store did not invalidate: %+v", st)
	}
	if st.Predecodes < 2 {
		t.Errorf("expected re-predecode after invalidation: %+v", st)
	}
}

// TestDMAIntoObservedCodePage: device DMA into a code page whose write-memo
// entry is live must move the page version the icache observed. A guest
// store into its own code page installs the page's write-memo entry, the
// fetches that follow observe the page version (disarming the entry), and a
// DMA Write into the page must then move the version and the fast engine
// must execute the new bytes — exactly as the reference interpreter does.
func TestDMAIntoObservedCodePage(t *testing.T) {
	img := words(
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegT1, Rs1: isa.RegZero, Imm: 7},     // 0x1000
		isa.Inst{Op: isa.OpSW, Rs2: isa.RegT1, Rs1: isa.RegZero, Imm: 0x1800}, // 0x1004: store into the code page
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegZero, Imm: 1},     // 0x1008: DMA target
		isa.Inst{Op: isa.OpHALT}, // 0x100C
	)
	patch := words(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegZero, Imm: 42})
	fast, ref := newCPUPair(t, img, nil)
	for _, c := range []*CPU{fast, ref} {
		if ex := runRecord(t, c, 1_000_000); ex.Reason != ExitHalt || c.X[isa.RegA0] != 1 {
			t.Fatalf("first run: exit %v a0=%d", ex, c.X[isa.RegA0])
		}
	}
	if fast.Mem.WMemoFills != 1 {
		t.Fatalf("the guest store should have filled one write-memo entry, got %d fills", fast.Mem.WMemoFills)
	}
	if p := fast.ICache.pages[1]; p == nil || p.ver != fast.Mem.PageVersion(1) {
		t.Fatal("the fetches after the store should have observed the code page's version")
	}
	for _, c := range []*CPU{fast, ref} {
		before := c.Mem.PageVersion(1)
		if f := c.Mem.Write(0x1008, patch); f != nil {
			t.Fatal(f)
		}
		if c.Mem.PageVersion(1) == before {
			t.Fatal("DMA into an observed page left its version unchanged")
		}
		c.PC = 0x1008
		if ex := runRecord(t, c, 1_000_000); ex.Reason != ExitHalt {
			t.Fatalf("second run: exit %v", ex)
		}
	}
	if got := fast.X[isa.RegA0]; got != 42 {
		t.Fatalf("fast engine a0 = %d, want 42 (executed the stale decode?)", got)
	}
	if fast.X != ref.X || fast.Cycles != ref.Cycles || fast.Instret != ref.Instret {
		t.Fatal("fast and reference engines diverged")
	}
}

// TestICacheStreamsHotLoop: a tight loop must be served almost entirely from
// the decoded cache, with identical architectural outcome.
func TestICacheStreamsHotLoop(t *testing.T) {
	// for s0 = 1000; s0 != 0; s0-- { a0 += 3 }
	img := words(
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegZero, Imm: 1000},
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3},
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: -1},
		isa.Inst{Op: isa.OpBNE, Rs1: isa.RegS0, Rs2: isa.RegZero, Imm: -8},
		isa.Inst{Op: isa.OpHALT},
	)
	cached, plain := newCPUPair(t, img, nil)
	exC, exP := runRecord(t, cached, 1_000_000), runRecord(t, plain, 1_000_000)
	if exC.Reason != ExitHalt || exP.Reason != ExitHalt {
		t.Fatalf("exits: cached %v plain %v", exC, exP)
	}
	if cached.X != plain.X || cached.Cycles != plain.Cycles || cached.Instret != plain.Instret {
		t.Fatal("cached and plain interpreters diverged")
	}
	st := cached.ICache.Stats
	// Superblock dispatch performs one lookup per block entry plus one per
	// terminator, so the loop's 4 instructions cost 2 lookups per iteration.
	if st.Hits < 1900 {
		t.Errorf("hot loop barely hit the cache: %+v", st)
	}
	if lookups := st.Hits + st.Misses + st.Invalidations; float64(st.Hits) < 0.99*float64(lookups) {
		t.Errorf("hit rate = %d/%d", st.Hits, lookups)
	}
	if len(cached.ICache.pages) == 0 {
		t.Error("no pages cached")
	}
}

// TestICacheCapacityEvictsSingleVictim: hitting maxCachedPages must evict
// exactly one page — the least recently fetched — instead of dropping the
// whole cache (the old behaviour, which made pathological code pay a full
// re-predecode of its entire footprint). Regression test for the eviction
// path, which was previously untested.
func TestICacheCapacityEvictsSingleVictim(t *testing.T) {
	np := uint64(maxCachedPages + 8)
	g := mem.NewGuestPhys(mem.NewPool(np+8), np*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	ic := NewICache()
	// Fill to capacity: pages 0 .. maxCachedPages-1, in order.
	for gfn := uint64(0); gfn < maxCachedPages; gfn++ {
		ic.fill(g, gfn)
	}
	if len(ic.pages) != maxCachedPages {
		t.Fatalf("cache holds %d pages, want %d", len(ic.pages), maxCachedPages)
	}
	// Touch page 0 so it is no longer the LRU; page 1 becomes the victim.
	if ic.lookup(g, 0) == nil {
		t.Fatal("page 0 vanished before capacity was exceeded")
	}
	ic.fill(g, maxCachedPages) // one past capacity
	if len(ic.pages) != maxCachedPages {
		t.Fatalf("after eviction cache holds %d pages, want %d", len(ic.pages), maxCachedPages)
	}
	if ic.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (whole-cache drop?)", ic.Stats.Evictions)
	}
	if _, ok := ic.pages[1]; ok {
		t.Error("LRU victim (page 1) survived the eviction")
	}
	for _, gfn := range []uint64{0, 2, maxCachedPages - 1, maxCachedPages} {
		if _, ok := ic.pages[gfn]; !ok {
			t.Errorf("page %d was dropped alongside the victim", gfn)
		}
	}
	// Evicting the page the one-entry MRU shortcut points at must reset the
	// shortcut rather than leave a dangling pointer.
	ic2 := NewICache()
	for gfn := uint64(0); gfn < maxCachedPages; gfn++ {
		ic2.fill(g, gfn)
	}
	ic2.lookup(g, 0)         // current page := 0
	ic2.pages[0].lastUse = 0 // force it to be the LRU victim
	ic2.fill(g, maxCachedPages)
	if _, ok := ic2.pages[0]; ok {
		t.Error("forced LRU (page 0) survived")
	}
	if ic2.curGfn == 0 {
		t.Error("MRU shortcut still points at the evicted page")
	}
	if p := ic2.lookup(g, 0); p != nil {
		t.Error("lookup of evicted current page returned a stale pointer")
	}
}

// TestICacheHotPageSurvivesEvictionPressure: a streaming hit must refresh
// the eviction stamp. Before the fix, lookup stamped lastUse only on MRU
// *transitions*, so a page hit exclusively through the MRU shortcut — a
// tight loop, and since block chaining every chained entry via noteChainHit
// — kept a stamp frozen at its entry time while colder pages accumulated
// newer ones, and under fill pressure evictOne victimized the hottest page
// in the cache, the one currently executing.
func TestICacheHotPageSurvivesEvictionPressure(t *testing.T) {
	np := uint64(maxCachedPages + 64)
	g := mem.NewGuestPhys(mem.NewPool(np+8), np*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	ic := NewICache()
	const hot = uint64(0)
	ic.fill(g, hot)
	hp := ic.lookup(g, hot) // MRU hit: fill left cur on the hot page
	if hp == nil {
		t.Fatal("hot page not cached")
	}
	before := hp.lastUse
	if ic.lookup(g, hot) != hp {
		t.Fatal("hot page lookup failed")
	}
	if hp.lastUse <= before {
		t.Fatalf("streaming MRU hit left lastUse frozen at %d", hp.lastUse)
	}
	// Chained-loop pressure: the hot page is entered via chain links only
	// (no lookup transitions to restamp it) while more cold pages than the
	// cache holds are filled. The hot page must survive every eviction.
	for cold := uint64(1); cold <= maxCachedPages+16; cold++ {
		ic.noteChainHit(hot, hp)
		ic.fill(g, cold)
		if _, ok := ic.pages[hot]; !ok {
			t.Fatalf("hot page evicted after %d cold fills", cold)
		}
	}
	if ic.Stats.Evictions == 0 {
		t.Fatal("pressure never triggered an eviction — the test lost its teeth")
	}
}

// TestICacheQuantumAndTraps: cache behaviour across quantum expiry, guest
// traps (illegal instruction vectoring through STVEC) and re-entry must be
// invisible.
func TestICacheQuantumAndTraps(t *testing.T) {
	// STVEC handler at 0x1100 skips the faulting instruction via sepc += 4.
	img := words(
		isa.Inst{Op: isa.OpCSRRW, Rd: isa.RegZero, Rs1: isa.RegT0, Imm: int32(isa.CSRStvec)}, // t0 preset
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegZero, Imm: 200},
		isa.Inst{Op: isa.OpIllegal}, // traps every iteration (loop re-enters here)
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 7},
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: -1},
		isa.Inst{Op: isa.OpBNE, Rs1: isa.RegS0, Rs2: isa.RegZero, Imm: -12},
		isa.Inst{Op: isa.OpHALT},
	)
	// Handler: csrr t1, sepc; addi t1, t1, 4; csrw sepc, t1; sret
	handler := words(
		isa.Inst{Op: isa.OpCSRRS, Rd: isa.RegT1, Rs1: isa.RegZero, Imm: int32(isa.CSRSepc)},
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegT1, Rs1: isa.RegT1, Imm: 4},
		isa.Inst{Op: isa.OpCSRRW, Rd: isa.RegZero, Rs1: isa.RegT1, Imm: int32(isa.CSRSepc)},
		isa.Inst{Op: isa.OpSRET},
	)
	run := func(mk engine) *CPU {
		c := newCPU(t, mk, img, 0x1000)
		if f := c.Mem.Write(0x1100, handler); f != nil {
			t.Fatal(f)
		}
		c.X[isa.RegT0] = 0x1100
		// Tiny quanta force many exits/re-entries mid-stream.
		for {
			ex := runRecord(t, c, 50)
			if ex.Reason == ExitHalt {
				return c
			}
			if ex.Reason != ExitQuantum {
				t.Fatalf("unexpected exit %v at pc %#x", ex, c.PC)
			}
		}
	}
	cached, plain := run(New), run(NewReference)
	if cached.X != plain.X || cached.Cycles != plain.Cycles ||
		cached.Instret != plain.Instret || cached.CSR != plain.CSR ||
		cached.Stats != plain.Stats {
		t.Fatalf("diverged:\ncached cyc=%d ret=%d traps=%d\nplain  cyc=%d ret=%d traps=%d",
			cached.Cycles, cached.Instret, cached.Stats.Traps,
			plain.Cycles, plain.Instret, plain.Stats.Traps)
	}
	if cached.X[isa.RegA0] != 200*7 {
		t.Fatalf("a0 = %d", cached.X[isa.RegA0])
	}
}

// TestDecodedPageSize: the chain table's geometry is paid for in every
// cached page. Two ways of 16 sets hold 32 links, and the MRU bit sits in
// chainLink's padding, so a page stays in the runtime's 28,672 B size
// class; 32 two-way sets would push it into the next one and show in
// alloc_mib on every workload.
func TestDecodedPageSize(t *testing.T) {
	if n := unsafe.Sizeof(decodedPage{}); n > 28672 {
		t.Fatalf("decodedPage is %d B, past the 28,672 B size class", n)
	}
}
