package vcpu

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Hot-trace execution: the layer above block chaining. The chain cache
// (icache.go) records up to two validated successors per terminator, one
// per way; once a link has been consumed hot — traceHotThreshold validated
// consumes — the engine follows the links forward and lowers the stable
// multi-block straight-line run into a trace: one entry check over every
// constituent link (the read-only linkValid), one wrap-safe horizon
// admission over the whole run's worst-case cycle span, and then block
// bodies, inline terminators and page-boundary crossings retire back to
// back with batched cycle/instret accounting. A trace whose tail terminator
// re-enters its own head (a hot loop) keeps iterating inside the trace,
// paying the outer fetch loop once per pass instead of once per block.
//
// A trace lives as long as its entry link: leaving the loop records the
// exit edge in the branch's other way, so the back edge — and the trace
// hanging off it — is still there when the loop runs again. A link that is
// overwritten takes its trace out of the store (setChain).
//
// Invisibility is inherited from the layers below and re-proven at each
// boundary:
//
//   - The entry check is pure reads (linkValid changes no statistic); a
//     rejected entry falls back to the block path having changed nothing.
//   - Execution replays exactly what the block path would have done: hop
//     bodies run through the same retireRun body the superblock engine
//     uses, hop transitions replay the chain-consume / crossing bookkeeping
//     (followLink) per boundary per pass,
//     and inline terminators replay the per-instruction path's fetch
//     (ReplayFetchSpan) and icache-hit accounting before executing through
//     the same executors.
//   - Skipped loop-top event checks cannot fire inside an admitted pass:
//     the admission span counts every instruction including inline
//     terminators, nothing inside a trace latches STIMECMP or makes a new
//     interrupt pending (CSR writes are system ops, never chain sources),
//     and each extra loop iteration re-admits against the freshly flushed
//     clock.
//   - Any surprise — guest trap, SMC into the executing page, TLB
//     generation change under a fetch, a boundary that no longer validates
//     — demotes back to the block path at the exact instruction boundary
//     where the untraced run would have noticed, with accounting flushed
//     for everything that actually retired.
//
// The whole engine is host-side: the suites in internal/guest prove
// guest-visible state byte-identical to the reference interpreter.

const (
	// traceHotThreshold is how many consecutive validated consumes a chain
	// link needs before the engine attempts to lower a trace through it.
	traceHotThreshold = 8
	// maxTraceHops caps the constituent blocks of one trace; longer chains
	// split at the cap and the tail executes as ordinary chained blocks.
	maxTraceHops = 8
	// maxTraces bounds the per-CPU trace store; registration past the bound
	// evicts the least recently entered trace.
	maxTraces = 64
	// traceFailLimit is how many failures — entry rejections, and passes
	// that leave the trace at an inner hop — a trace survives between two
	// completed passes before it is dropped. The entry link's heat stays
	// pinned at the threshold, so the same shape is not re-formed until the
	// link is re-recorded.
	traceFailLimit = 4
)

// traceHop pins one constituent block at formation time: the successor PC
// and guest-physical page the chain link resolved to. Entry validation
// re-derives everything else (page object, slot, block shape) from the live
// links so a trace never trusts stale pointers.
type traceHop struct {
	pc  uint64
	gfn uint64
}

// rtHop is the entry-validated runtime state of one hop, rebuilt by every
// runTrace call: the live predecoded page, the consumed link (nil for hop
// 0, whose validation the outer loop's chain consume already performed),
// and the block shape. term is the slot after the body — a terminator slot,
// or instPerPage when the body runs flush to the page boundary (a crossing).
type rtHop struct {
	p    *decodedPage
	link *chainLink
	gfn  uint64
	slot uint64
	n    uint64
	term uint64
}

// trace is a lowered multi-block run, entered through headLink. tailTerm
// marks a closed loop: the last hop's terminator was observed (at formation)
// to re-enter the head through headLink itself, so an admitted pass may
// iterate.
type trace struct {
	headPC   uint64
	headGfn  uint64
	tailTerm bool
	headLink *chainLink
	hops     []traceHop
	rt       [maxTraceHops]rtHop
	lastUse  uint64
	fails    uint8
}

// registerTrace adds a formed trace to the store, evicting the least
// recently entered trace (ties broken by registration order — the scan is
// over a slice, so the choice is deterministic run to run) when full.
func (ic *ICache) registerTrace(tr *trace) {
	if len(ic.traces) >= maxTraces {
		victim := 0
		for i, t := range ic.traces {
			if t.lastUse < ic.traces[victim].lastUse {
				victim = i
			}
		}
		ic.dropTrace(ic.traces[victim])
	}
	ic.traces = append(ic.traces, tr)
	ic.Stats.TraceFormations++
}

// dropTrace removes a trace from the store and unhooks its entry link. A
// registered trace is always its head link's: every path that overwrites a
// link or discards its page drops the link's trace first.
func (ic *ICache) dropTrace(tr *trace) {
	for i, t := range ic.traces {
		if t == tr {
			ic.traces = append(ic.traces[:i], ic.traces[i+1:]...)
			break
		}
	}
	tr.headLink.tr = nil
	ic.Stats.TraceInvalidations++
}

// formTrace attempts to lower a trace through l, a chain link that just
// validated its traceHotThreshold-th consecutive consume. It walks the
// chain forward from l's target, accepting each continuation only while it
// is provable right now — the terminator is a pure control transfer with a
// recorded link that passes the read-only linkValid (formation must not
// perturb MMU bookkeeping). At a terminator with two recorded ways the walk
// closes into a loop when one of them is l itself — the entry link is the
// back edge — which marks the trace tailTerm; otherwise it follows the way
// recorded most recently. A walk that yields fewer than two hops and no
// closed loop has nothing to amortize; the heat resets so formation retries
// after the links warm further.
func (c *CPU) formTrace(l *chainLink) {
	headP, headSlot := l.page, uint64(l.tslot)
	if uint64(headP.blkLen[headSlot]) < 2 {
		l.heat = 0
		return
	}
	// The walk fills a stack array: most hot links sit on a lone block
	// ending in a system op, fail here every traceHotThreshold consumes,
	// and must not cost the heap anything. Only a formed trace is allocated.
	var hops [maxTraceHops]traceHop
	hops[0] = traceHop{pc: l.pc, gfn: l.gfn}
	nh := 1
	closed := false
	p, slot := headP, headSlot
	for nh < maxTraceHops {
		n := uint64(p.blkLen[slot])
		if n == 0 {
			break
		}
		ts := slot + n
		var src uint16
		if ts == instPerPage {
			src = instPerPage - 1 // page-boundary pseudo-terminator
		} else {
			// The terminator must be a control transfer the trace can
			// retire inline; system ops and invalid slots end the walk.
			if !isa.IsChainSource(isa.Op(p.raw[ts] >> 26)) {
				break
			}
			src = uint16(ts)
		}
		nl := p.chainWalk(src, l)
		if nl == nil || !c.linkValid(nl, nl.pc) {
			break
		}
		if nl == l {
			// The walk consumed its own entry link: a closed loop whose
			// tail re-enters the head every pass.
			closed = true
			break
		}
		if nl.page.blkLen[nl.tslot] == 0 {
			break
		}
		hops[nh] = traceHop{pc: nl.pc, gfn: nl.gfn}
		nh++
		p, slot = nl.page, uint64(nl.tslot)
	}
	if !closed && nh < 2 {
		l.heat = 0
		return
	}
	tr := &trace{headPC: l.pc, headGfn: l.gfn, headLink: l, tailTerm: closed}
	tr.hops = append(tr.hops, hops[:nh]...)
	c.ICache.registerTrace(tr)
	l.tr = tr
}

// traceFail records a demotion that is the trace's own failure: an entry
// check that no longer validates (dispatched false — the block path runs
// this dispatch, nothing perturbed), or a pass that left the trace at an
// inner hop (dispatched true). traceFailLimit failures without a completed
// pass in between drop the trace. It returns runTrace's results: not done,
// and dispatched as given.
func (c *CPU) traceFail(tr *trace, dispatched bool) (bool, bool) {
	c.ICache.Stats.TraceDemotions++
	tr.fails++
	if tr.fails >= traceFailLimit {
		c.ICache.dropTrace(tr)
	}
	return false, dispatched
}

// traceTerm statuses.
const (
	termOK      = iota // terminator retired and control went where expected
	termBail           // fetch replay failed; the terminator did not retire
	termDiverge        // terminator retired but control left the trace
	termExit           // the exit record is written
)

// traceTerm retires one inline terminator (slot term of page p, the current
// PC) and reports whether control continued to expectPC. It replays exactly
// the per-instruction path's bookkeeping for this fetch: the memoized
// same-page translation via ReplayFetchSpan, then the icache lookup hit (the
// MRU slot is this page — the hop body just ran from it, and nothing inside
// the hop can have changed the page's version without ending it as stSMC),
// then the slot's lazy decode and the same executor the outer loop would
// call. Cycle/instret accounting stays with the caller's batch.
func (c *CPU) traceTerm(p *decodedPage, term uint64, expectPC uint64) int {
	if !c.MMU.ReplayFetchSpan(c.PC, 1) {
		return termBail
	}
	ic := c.ICache
	ic.tick++
	p.lastUse = ic.tick
	ic.Stats.Hits++
	j := term
	if p.valid[j>>6]&(1<<(j&63)) == 0 {
		p.ins[j] = isa.Decode(p.raw[j])
		p.fn[j] = execTable.For(p.ins[j].Op)
		p.valid[j>>6] |= 1 << (j & 63)
	}
	if p.fn[j](c, p.ins[j], p.raw[j]) == stExit {
		return termExit
	}
	if c.PC != expectPC {
		return termDiverge
	}
	return termOK
}

// runTrace attempts to execute one admitted pass of tr — or, for a closed
// loop, as many passes as keep re-admitting — starting from the chain
// consume the outer loop just performed through tr.headLink. dispatched
// reports whether the trace ran at all; when false nothing was perturbed
// and the caller falls through to the superblock path. When done is true,
// the exit record is written and Run must return its reason; otherwise the
// outer loop resumes at the current PC.
func (c *CPU) runTrace(tr *trace, deadline uint64) (done, dispatched bool) {
	ic := c.ICache
	nh := len(tr.hops)

	// Entry check: one read-only validation pass over every constituent
	// page. Hop 0 needs no revalidation — the outer loop's chain consume
	// just proved it (followLink). Each later hop is re-derived from the
	// live link its predecessor's terminator recorded, and must still
	// resolve to the formation-time successor and pass linkValid.
	hl := tr.headLink
	hp, slot := hl.page, uint64(hl.tslot)
	var totalN, totalMem uint64
	for k := 0; k < nh; k++ {
		rt := &tr.rt[k]
		if k == 0 {
			rt.link, rt.gfn = nil, hl.gfn
		} else {
			prev := &tr.rt[k-1]
			src := uint16(prev.term)
			if prev.term == instPerPage {
				src = instPerPage - 1
			}
			h := &tr.hops[k]
			l := prev.p.chainAt(src, h.pc)
			if l == nil || l.gfn != h.gfn || !c.linkValid(l, h.pc) {
				return c.traceFail(tr, false)
			}
			hp, slot = l.page, uint64(l.tslot)
			rt.link, rt.gfn = l, l.gfn
		}
		n := uint64(hp.blkLen[slot])
		if n == 0 {
			return c.traceFail(tr, false)
		}
		rt.p, rt.slot, rt.n, rt.term = hp, slot, n, slot+n
		totalN += n
		totalMem += uint64(hp.blkMem[slot])
		if rt.term < instPerPage && (k < nh-1 || tr.tailTerm) {
			totalN++ // this hop's terminator retires inline
		}
	}
	if tr.tailTerm {
		last := &tr.rt[nh-1]
		if last.term == instPerPage || last.p.chainAt(uint16(last.term), tr.headPC) != hl ||
			!c.linkValid(hl, tr.headPC) {
			return c.traceFail(tr, false)
		}
	}

	// Event-horizon admission: the same wrap-guarded quantum/STIMECMP span
	// check the superblock engine makes, run once over the whole pass's
	// worst-case cycle span. Admitting the total span implies every per-block
	// admission the untraced run would make along the pass (each suffix span
	// is no larger, and actual cycles spent never exceed the worst case
	// already subtracted), so event boundaries land on exactly the same
	// instruction either way.
	if !c.blockAdmissible(totalN, totalMem, deadline) {
		// Not staleness — the quantum or timer horizon is too close for a
		// whole pass. The block path runs this dispatch and event
		// boundaries land exactly where the untraced run puts them.
		return false, false
	}
	tr.lastUse = ic.tick
	ic.Stats.TraceEntries++

	instr := c.Costs.Instr
	var retired uint64
	// flushExit ends the pass at the current instruction boundary with
	// accounting batched for everything that actually retired. (retired is
	// passed by value so the hot loop's counter stays in a register.)
	flushExit := func(retired uint64) {
		c.Cycles += retired * instr
		c.Instret += retired
		c.codeGfn = mem.NoFrame
	}
	for {
		for k := 0; k < nh; k++ {
			rt := &tr.rt[k]
			c.codeGfn = rt.gfn
			r, st := c.retireRun(rt.p, rt.slot, rt.n, rt.p.blkMem[rt.slot] == 0)
			retired += r
			if st != stOK {
				flushExit(retired)
				if st == stExit {
					return true, true
				}
				// Guest trap, SMC into this page, or a TLB generation
				// change under the fetch stream: demote in place.
				ic.Stats.TraceDemotions++
				return false, true
			}
			if k == nh-1 {
				break
			}
			next := &tr.rt[k+1]
			if rt.term == instPerPage {
				// Page-boundary crossing: replay runBlock's continuation —
				// arm the pseudo-terminator, then prove the recorded link
				// still exact before following it.
				c.chainPage, c.chainSlot, c.chainArmed = rt.p, instPerPage-1, true
				if !c.followLink(next.link) {
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return false, true
				}
				ic.Stats.Crossings++
			} else {
				switch c.traceTerm(rt.p, rt.term, next.link.pc) {
				case termBail:
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return false, true
				case termExit:
					retired++
					flushExit(retired)
					return true, true
				case termDiverge:
					// Control left the trace mid-pass (a branch changed
					// polarity). Arm the source so the outer loop records
					// or consumes the new edge, exactly as the
					// per-instruction path would have. A trace that leaves
					// this way on every entry is dropped (traceFailLimit).
					retired++
					c.chainPage, c.chainSlot, c.chainArmed = rt.p, uint16(rt.term), true
					flushExit(retired)
					return c.traceFail(tr, true)
				}
				retired++
				// Terminator transition: replay the chain consume the
				// outer loop would perform for this armed source.
				c.chainPage, c.chainSlot, c.chainArmed = rt.p, uint16(rt.term), true
				if !c.followLink(next.link) {
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return false, true
				}
			}
		}
		tr.fails = 0 // every hop retired: a completed pass
		last := &tr.rt[nh-1]
		if !tr.tailTerm {
			if last.term == instPerPage {
				// The pass ends flush at a page boundary with no admitted
				// continuation in the trace: arm the pseudo-terminator and
				// let the outer loop continue the chain, exactly as
				// runBlock's boundary break does.
				c.chainPage, c.chainSlot, c.chainArmed = last.p, instPerPage-1, true
			}
			break
		}
		// Closed loop: retire the tail terminator; control should return
		// to the head.
		switch c.traceTerm(last.p, last.term, tr.headPC) {
		case termBail:
			flushExit(retired)
			ic.Stats.TraceDemotions++
			return false, true
		case termExit:
			retired++
			flushExit(retired)
			return true, true
		case termDiverge:
			// The loop exited through its tail branch — a normal trace
			// end, not a demotion. Arm the source so the outer loop
			// handles the exit edge's own chain link.
			retired++
			c.chainPage, c.chainSlot, c.chainArmed = last.p, uint16(last.term), true
			flushExit(retired)
			return false, true
		}
		retired++
		// Flush before re-admission so the horizon compares against the
		// live clock, then replay the back-edge consume for the next pass.
		c.Cycles += retired * instr
		c.Instret += retired
		retired = 0
		c.chainPage, c.chainSlot, c.chainArmed = last.p, uint16(last.term), true
		if !c.blockAdmissible(totalN, totalMem, deadline) || !c.followLink(tr.headLink) {
			// Horizon reached or the back edge went stale: exit armed at
			// the head boundary; the outer loop's event checks and chain
			// consume take over at the same instruction.
			c.codeGfn = mem.NoFrame
			return false, true
		}
		tr.lastUse = ic.tick
		ic.Stats.TraceEntries++
	}
	flushExit(retired)
	return false, true
}
