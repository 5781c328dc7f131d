package vcpu

import (
	"fmt"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// runPairToHalt drives both engines to halt and asserts byte-identical state.
func runPairToHalt(t *testing.T, label string, traced, plain *CPU) {
	t.Helper()
	exT, exP := runRecord(t, traced, 50_000_000), runRecord(t, plain, 50_000_000)
	if exT.Reason != ExitHalt || exP.Reason != ExitHalt {
		t.Fatalf("%s: exits: traced %v plain %v (pc %#x vs %#x)", label, exT, exP, traced.PC, plain.PC)
	}
	compareCPUs(t, label, traced, plain)
	if t.Failed() {
		t.FailNow()
	}
}

// checkTraceStore asserts the trace store holds exactly the traces hanging
// off the cached pages' chain links: each registered trace once, each still
// carried by its head link (no orphan waiting for LRU eviction), and no link
// carrying a trace the store does not hold.
func checkTraceStore(t *testing.T, ic *ICache) {
	t.Helper()
	registered := make(map[*trace]bool, len(ic.traces))
	for _, tr := range ic.traces {
		if registered[tr] {
			t.Fatalf("trace at %#x registered twice", tr.headPC)
		}
		registered[tr] = true
		if tr.headLink.tr != tr {
			t.Fatalf("orphan trace at %#x: its head link no longer carries it", tr.headPC)
		}
	}
	carried := 0
	for gfn, p := range ic.pages {
		for s := range p.chain {
			for w := range p.chain[s] {
				l := &p.chain[s][w]
				if l.tr == nil {
					continue
				}
				if !registered[l.tr] {
					t.Fatalf("page %#x: link to %#x carries an unregistered trace", gfn, l.pc)
				}
				carried++
			}
		}
	}
	if carried != len(ic.traces) {
		t.Fatalf("%d traces registered, %d carried by cached links", len(ic.traces), carried)
	}
}

// nestedLoopImg is an outer loop of outer passes around a counted inner
// loop of 16 iterations. The outer block runs straight into the inner body,
// so the inner branch is taken on the first hop of every outer pass and
// falls through once per pass.
func nestedLoopImg(t *testing.T, outer uint64) (img []byte, outerBack, outerTop uint64) {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, outer)
	b.Label("outer")
	b.Li(isa.RegT0, 16)
	b.Label("inner")
	b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 1)
	b.I(isa.OpADDI, isa.RegT0, isa.RegT0, -1)
	b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "inner")
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Label("outer_back")
	b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "outer")
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	outerBack, _ = b.LabelAddr("outer_back")
	outerTop, _ = b.LabelAddr("outer")
	return img, outerBack, outerTop
}

// TestTraceSurvivesLoopExit: the inner loop's exit edge takes its branch's
// second way, so the back edge keeps its link and its trace across outer
// passes. Formations must not grow with the outer count; with one link per
// branch the exit evicted the trace and every pass re-formed it.
func TestTraceSurvivesLoopExit(t *testing.T) {
	formations := map[uint64]uint64{}
	for _, n := range []uint64{100, 1000} {
		img, _, _ := nestedLoopImg(t, n)
		traced, plain := newCPUPair(t, img, nil)
		runPairToHalt(t, fmt.Sprintf("loop-exit-%d", n), traced, plain)
		st := traced.ICache.Stats
		if st.TraceEntries < 12*n {
			t.Errorf("outer %d: %d trace entries, want ≥ %d: %+v", n, st.TraceEntries, 12*n, st)
		}
		checkTraceStore(t, traced.ICache)
		formations[n] = st.TraceFormations
	}
	if formations[100] != formations[1000] {
		t.Fatalf("trace formations grow with the outer count: %v", formations)
	}
}

// TestTraceMidPassDivergenceDrops: the outer loop's trace is formed through
// the inner branch's fall-through way, but on every entry the branch is
// taken into the inner loop — the pass leaves the trace at an inner hop.
// Those divergences count toward traceFailLimit, so the trace is dropped
// after traceFailLimit entries and its entry link stays pinned; before,
// each admission reset the count and the trace demoted once per outer pass
// forever.
func TestTraceMidPassDivergenceDrops(t *testing.T) {
	demotions := map[uint64]uint64{}
	for _, n := range []uint64{100, 1000} {
		img, back, top := nestedLoopImg(t, n)
		traced, plain := newCPUPair(t, img, nil)
		runPairToHalt(t, fmt.Sprintf("diverge-%d", n), traced, plain)
		st := traced.ICache.Stats
		page := traced.ICache.pages[back>>isa.PageShift]
		l := page.chainAt(uint16(back&isa.PageMask/4), top)
		if l == nil {
			t.Fatalf("outer %d: no link through the outer back edge", n)
		}
		if l.tr != nil || l.heat != traceHotThreshold || st.TraceInvalidations == 0 {
			t.Fatalf("outer %d: outer trace not dropped and pinned: tr=%v heat=%d %+v", n, l.tr, l.heat, st)
		}
		if st.TraceDemotions != traceFailLimit {
			t.Errorf("outer %d: %d demotions, want the outer trace's %d failed entries: %+v",
				n, st.TraceDemotions, traceFailLimit, st)
		}
		demotions[n] = st.TraceDemotions
	}
	if demotions[100] != demotions[1000] {
		t.Fatalf("demotions grow with the outer count: %v", demotions)
	}
}

// TestTraceFormationAndLoop: the boundary-straddling hot loop must promote
// to a closed-loop trace (one formation, one entry per iteration) and stay
// byte-identical to the reference interpreter.
func TestTraceFormationAndLoop(t *testing.T) {
	img := chainLoopImg(t, 200)
	traced, plain := newCPUPair(t, img, nil)
	runPairToHalt(t, "trace-loop", traced, plain)
	st := traced.ICache.Stats
	if st.TraceFormations == 0 || st.TraceEntries < 100 {
		t.Fatalf("trace engine idle on a hot loop: %+v", st)
	}
	if plain.ICache != nil {
		t.Fatal("reference CPU has an icache attached")
	}
}

// TestTraceQuantumFallback: quantum expiry must land on exactly the same
// instruction under both engines. The whole-span admission refuses a pass
// whose worst case could cross the deadline, the per-iteration re-admission
// refuses further passes, and a budget sweep lands the deadline on every
// boundary in and around would-be traces.
func TestTraceQuantumFallback(t *testing.T) {
	img := chainLoopImg(t, 60)
	var entries uint64
	for budget := uint64(97); budget < 4000; budget += 449 {
		traced, plain := newCPUPair(t, img, nil)
		for {
			exT := runRecord(t, traced, budget)
			exP := runRecord(t, plain, budget)
			if exT.Reason != exP.Reason {
				t.Fatalf("budget %d: exit diverged: traced %v plain %v (pc %#x vs %#x)",
					budget, exT, exP, traced.PC, plain.PC)
			}
			compareCPUs(t, "trace-quantum", traced, plain)
			if t.Failed() {
				t.Fatalf("diverged at budget %d", budget)
			}
			if exT.Reason == ExitHalt {
				break
			}
		}
		entries += traced.ICache.Stats.TraceEntries
	}
	if entries == 0 {
		t.Fatal("no budget in the sweep admitted a single trace pass")
	}
}

// TestTraceStimecmpExact: the timer latch must flip at exactly the same
// instruction under both engines — the trace admission refuses any pass
// whose worst-case span could cross an unlatched STIMECMP. Swept so the
// latch point lands before, inside and after the hot loop's trace passes.
func TestTraceStimecmpExact(t *testing.T) {
	img := chainLoopImg(t, 60)
	for cmp := uint64(50); cmp < 6000; cmp += 377 {
		traced, plain := newCPUPair(t, img, nil)
		traced.CSR.Stimecmp, plain.CSR.Stimecmp = cmp, cmp
		runPairToHalt(t, "trace-stimecmp", traced, plain)
		if traced.CSR.Sip != plain.CSR.Sip {
			t.Fatalf("cmp %d: Sip diverged: %#x vs %#x", cmp, traced.CSR.Sip, plain.CSR.Sip)
		}
	}
}

// traceTortureImg builds the straddling loop with a mid-loop branch that
// patches an instruction in the trace's second constituent page at iteration
// patchAt (SMC into a mid-trace page), and optionally an SFENCE.VMA every
// 16th iteration (TLB generation churn between formation and entry).
func traceTortureImg(t *testing.T, iters, patchAt uint64, sfence bool) []byte {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, iters)
	for b.PC() < 0x1FF0 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	}
	b.Label("loop")
	for b.PC() < 0x2020 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	}
	if patchAt != 0 {
		// if s0 == patchAt: overwrite the ADDI at 0x2010 with "addi a0, a0, 3"
		b.Li(isa.RegT0, patchAt)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegT0, "nopatch")
		b.Li(isa.RegT1, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
		b.Li(isa.RegT2, 0x2010)
		b.Store(isa.OpSW, isa.RegT1, isa.RegT2, 0)
		b.Label("nopatch")
	}
	if sfence {
		// if s0 % 16 == 0: SFENCE.VMA — lands between trace formation
		// (heat saturates in 8 clean iterations) and later entries.
		b.Li(isa.RegT3, 16)
		b.R(isa.OpREMU, isa.RegT4, isa.RegS0, isa.RegT3)
		b.Branch(isa.OpBNE, isa.RegT4, isa.RegZero, "nofence")
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Label("nofence")
	}
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "loop")
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestTraceSMCMidTraceConstituent: a store into a mid-trace constituent page
// (the successor page of the crossing) must demote the trace on the exact
// instruction where the block path notices, and both engines must stay
// byte-identical through the patch, the refill and the re-formation.
func TestTraceSMCMidTraceConstituent(t *testing.T) {
	img := traceTortureImg(t, 50, 25, false)
	traced, plain := newCPUPair(t, img, nil)
	runPairToHalt(t, "trace-smc", traced, plain)
	st := traced.ICache.Stats
	if st.TraceEntries == 0 {
		t.Fatalf("trace never entered before the patch: %+v", st)
	}
	if st.TraceDemotions == 0 {
		t.Fatalf("SMC into a constituent page never demoted: %+v", st)
	}
	// The patched page holds the loop's back edge, so its refill discarded
	// the head link of the trace formed before the patch.
	checkTraceStore(t, traced.ICache)
}

// TestTraceSfenceBetweenFormationAndEntry: SFENCE.VMA between formation and
// the next entry bumps the TLB generation, so every translation snapshot the
// trace depends on goes stale at once. Entry admission must refuse the pass
// (a demotion per fence) and fall back to the block path, which re-proves
// the links; once their snapshots are fresh the same trace re-admits — all
// byte-identical to the reference interpreter.
func TestTraceSfenceBetweenFormationAndEntry(t *testing.T) {
	img := traceTortureImg(t, 96, 0, true)
	traced, plain := newCPUPair(t, img, nil)
	runPairToHalt(t, "trace-sfence", traced, plain)
	st := traced.ICache.Stats
	if st.TraceDemotions == 0 {
		t.Fatalf("SFENCE churn never demoted a pass: %+v", st)
	}
	if st.TraceEntries == 0 {
		t.Fatalf("trace never entered between fences: %+v", st)
	}
	if st.TraceEntries < st.TraceDemotions {
		t.Fatalf("trace never recovered between fences: %+v", st)
	}
}

// TestTraceRemapFlushExact: the invalidation the page-version check cannot
// see — a leaf PTE is retargeted to a different frame whose code differs
// while the old frame's content (and so its version) never changes. The
// trace's snapshots still name the old frame; only the TLB-generation check
// stands between the traced engine and silently executing stale code. Both
// engines must observe the new frame at exactly the remap iteration.
func TestTraceRemapFlushExact(t *testing.T) {
	const (
		targetVA = uint64(0x200000)
		frame1   = uint64(80)
		frame2   = uint64(81)
		iters    = uint64(64)
		remapAt  = uint64(32)
	)
	build := func(mk engine) *CPU {
		g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
		tb, err := mmu.NewTableBuilder(g, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.IdentityMap(160*isa.PageSize, isa.PTERead|isa.PTEWrite|isa.PTEExec); err != nil {
			t.Fatal(err)
		}
		if err := tb.Map(targetVA, frame1<<isa.PageShift, isa.PTERead|isa.PTEExec); err != nil {
			t.Fatal(err)
		}
		l0, err := tb.EnsureL0(targetVA)
		if err != nil {
			t.Fatal(err)
		}
		pteAddr := l0<<isa.PageShift + isa.VPN(targetVA, 0)*8
		newPTE := isa.MakePTE(frame2, isa.PTERead|isa.PTEExec|isa.PTEValid|isa.PTEAcc|isa.PTEDirty)

		// Both frames: bump a1 (frame 2 by 2, so staleness is visible), then
		// jump back to the loop.
		for _, fr := range []struct {
			ppn uint64
			inc int64
		}{{frame1, 1}, {frame2, 2}} {
			fb := asm.NewBuilder(targetVA)
			fb.I(isa.OpADDI, isa.RegA1, isa.RegA1, fr.inc)
			fb.I(isa.OpADDI, isa.RegA2, isa.RegA2, 1)
			fb.Jalr(isa.RegZero, isa.RegS3, 0)
			fimg, err := fb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if f := g.Write(fr.ppn<<isa.PageShift, fimg); f != nil {
				t.Fatal(f)
			}
		}

		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegT0, isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN))
		b.Csrw(isa.CSRSatp, isa.RegT0)
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.La(isa.RegS3, "loopret")
		b.Li(isa.RegS4, targetVA)
		b.Li(isa.RegS5, pteAddr)
		b.Li(isa.RegS6, newPTE)
		b.Li(isa.RegS0, iters)
		b.Li(isa.RegS2, 0)
		b.Li(isa.RegT5, remapAt)
		b.Label("top")
		// Two straight instructions so the loop head is a traceable block,
		// then into the remapped page (a trace constituent).
		b.I(isa.OpADDI, isa.RegA3, isa.RegA3, 1)
		b.I(isa.OpADDI, isa.RegA4, isa.RegA4, 1)
		b.Jalr(isa.RegZero, isa.RegS4, 0)
		b.Label("loopret")
		b.Branch(isa.OpBNE, isa.RegS2, isa.RegT5, "no_remap")
		b.Store(isa.OpSD, isa.RegS6, isa.RegS5, 0)
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Label("no_remap")
		b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
		b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "top")
		b.Halt(0)
		img, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if f := g.Write(0x1000, img); f != nil {
			t.Fatal(f)
		}

		c := mk(g, mmu.NewContext(g, mmu.StyleDirect))
		c.Priv = PrivS
		c.PC = 0x1000
		return c
	}

	traced, plain := build(New), build(NewReference)
	runPairToHalt(t, "trace-remap", traced, plain)
	want := (remapAt + 1) + (iters-remapAt-1)*2
	if traced.X[isa.RegA1] != want || plain.X[isa.RegA1] != want {
		t.Errorf("a1: traced=%d plain=%d want %d (stale frame executed?)",
			traced.X[isa.RegA1], plain.X[isa.RegA1], want)
	}
	if st := traced.ICache.Stats; st.TraceEntries == 0 {
		t.Errorf("fast engine never entered a trace: %+v", st)
	}
}

// TestTraceStoreEviction: more hot loops than the trace store holds. Each
// tiny loop runs hot enough to form its own trace; past maxTraces the store
// must evict deterministically, stay byte-identical to the reference, and keep
// admitting the still-hot newcomers.
func TestTraceStoreEviction(t *testing.T) {
	const loops = maxTraces + 6
	b := asm.NewBuilder(0x1000)
	for i := 0; i < loops; i++ {
		lbl := fmt.Sprintf("loop%d", i)
		b.Li(isa.RegT0, 16)
		b.Label(lbl)
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 1)
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, -1)
		b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, lbl)
	}
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	traced, plain := newCPUPair(t, img, nil)
	runPairToHalt(t, "trace-evict", traced, plain)
	st := traced.ICache.Stats
	if st.TraceFormations < loops {
		t.Fatalf("expected ≥%d formations, got %+v", loops, st)
	}
	if st.TraceInvalidations < loops-maxTraces {
		t.Fatalf("expected ≥%d store evictions, got %+v", loops-maxTraces, st)
	}
	if len(traced.ICache.traces) > maxTraces {
		t.Fatalf("trace store over bound: %d", len(traced.ICache.traces))
	}
	checkTraceStore(t, traced.ICache)
}

// TestTraceFailedFormationAllocatesNothing: a hot back edge into a block that
// ends in a system op can never form a trace — the walk stops at the CSR
// read with one hop and no loop — and retries every traceHotThreshold
// consumes for as long as the loop runs. The attempt must leave no trace
// behind and cost the heap nothing; before the fix each one allocated and
// discarded a ~0.5 KiB trace.
func TestTraceFailedFormationAllocatesNothing(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, 1<<20)
	b.Label("loop")
	b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	b.Csrr(isa.RegT0, isa.CSRSscratch)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Label("back")
	b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "loop")
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := b.LabelAddr("back")
	loop, _ := b.LabelAddr("loop")
	// Stop mid-loop with the back edge hot. (Its link would outlive the
	// loop's exit too: the exit edge is recorded in the branch's other way.)
	c := newCPU(t, New, img, 0x1000)
	if ex := runRecord(t, c, 2000); ex.Reason != ExitQuantum {
		t.Fatalf("exit = %v (pc=%#x)", ex, c.PC)
	}
	page := c.ICache.pages[back>>isa.PageShift]
	if page == nil {
		t.Fatal("code page not in the icache")
	}
	l := page.chainAt(uint16(back&isa.PageMask/4), loop)
	if l == nil || l.page.blkLen[l.tslot] < 2 {
		t.Fatalf("no chain link through the loop's back edge: %+v", l)
	}
	if c.ICache.Stats.ChainHits == 0 || c.ICache.Stats.TraceFormations != 0 {
		t.Fatalf("the loop should chain hot and never trace: %+v", c.ICache.Stats)
	}
	attempt := func() {
		l.heat = traceHotThreshold
		c.formTrace(l)
	}
	attempt()
	if l.tr != nil || l.heat != 0 || c.ICache.Stats.TraceFormations != 0 {
		t.Fatalf("failed formation left state behind: tr=%v heat=%d %+v", l.tr, l.heat, c.ICache.Stats)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Fatalf("a failed formation attempt allocates %v times, want 0", n)
	}
}
