package vcpu

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Superblock execution: straight-line runs of predecoded instructions
// dispatched as one unit, with the per-instruction event checks hoisted to
// block entry. The engine is architecturally invisible by construction:
//
//   - Event horizon. The slow path checks the quantum deadline, the STIMECMP
//     latch and pending interrupts before every instruction. Inside a block
//     none of those checks can fire: dispatch requires that the block's
//     worst-case cycle span stays strictly below both the deadline and an
//     unlatched STIMECMP, and nothing inside a block can make a new
//     interrupt pending (Sip/Sie/Sstatus only change via CSR writes, traps
//     and VMM injection — the first two end blocks, the last happens outside
//     Run). When the horizon check fails, the caller falls back to the
//     per-instruction path, so event boundaries land on exactly the same
//     instruction as an unblocked run.
//
//   - Bail-anywhere. Skipped checks are reads with no side effects (the one
//     write, the STIMECMP latch, is excluded by the horizon), so abandoning
//     a block at any instruction boundary and resuming the outer loop is
//     always exact: the outer loop performs precisely the checks the slow
//     path would have performed at that boundary. The engine uses this
//     liberally — a guest trap redirecting the PC, a TLB generation change
//     under the fetch stream, or a store invalidating the executing page all
//     just end the block.
//
//   - Exact replay. Fetch translations for instructions after the first are
//     replayed through mmu.Context.ReplayFetchSpan (translation count, TLB
//     LRU stamp and hit counter — identical to what TranslateFetch would do),
//     and cycle/instret accounting is batched into one addition per block,
//     which is exact because nothing inside a block reads the clock.
//
// In-block instructions run on the threaded executors (dispatch.go) via the
// slot's decode-time-resolved func pointer — stores included: storeExec
// detects stores into the executing page through c.codeGfn (set for the
// block's duration) and reports stSMC, so blocks need no per-instruction
// store special-casing.

// blockAdmissible reports whether a straight-line run of n instructions
// containing memOps memory operations can retire without any event boundary
// landing inside it: the run's worst-case cycle span — every instruction's
// base cost plus, per memory op, the access itself and a maximal page-table
// walk (fetch replays add no cycles; a TLB geometry change ends the block
// before a fetch could walk) — must stay strictly below both the quantum
// deadline and an unlatched STIMECMP. The comparisons are wrap-guarded: the
// old `c.Cycles + span` horizon wrapped when the cycle counter ran near
// ^uint64(0) and falsely admitted blocks whose span crossed the deadline or
// the timer latch (bugfix; see TestBlockHorizonSaturatedCycles).
func (c *CPU) blockAdmissible(n, memOps, deadline uint64) bool {
	span := n*c.Costs.Instr +
		memOps*(c.Costs.MemAccess+c.MMU.MaxWalkRefs()*c.Costs.PTRef)
	if c.Cycles >= deadline || span >= deadline-c.Cycles {
		return false
	}
	if cmp := c.CSR.Stimecmp; cmp != 0 && c.CSR.Sip&(1<<isa.IntTimer) == 0 {
		if cmp <= c.Cycles || span >= cmp-c.Cycles {
			return false
		}
	}
	return true
}

// runBlock executes the superblock starting at slot idx of predecoded page p
// (whose guest-physical page is gfn), assuming the caller already performed
// this instruction's fetch translation and event checks. dispatched reports
// whether the block was entered at all; when false nothing happened and the
// caller must execute the instruction on the single-instruction path. When
// done is true, the exit record is written and Run must return its reason;
// otherwise the outer loop resumes at the current PC (which may be mid-block
// after a bail, or the terminator).
//
// Cross-page continuation: a run cut by the page boundary rather than a
// terminator may continue into the successor page when the boundary's chain
// link proves the successor still exact (linkValid, then followLink, which
// replays precisely the fetch bookkeeping the outer loop's real
// TranslateFetch would perform) and the successor run passes its own
// admission check against the advanced clock. That check is the same
// decision a fresh block entry at the successor's first instruction would
// make, and the entry admission proves no loop-top event (quantum, timer
// latch, interrupt window) could have fired at the boundary, so event
// boundaries land on exactly the same instruction as the unchained run.
func (c *CPU) runBlock(p *decodedPage, idx, gfn, deadline uint64) (done, dispatched bool) {
	n := uint64(p.blkLen[idx])
	memOps := uint64(p.blkMem[idx])
	if !c.blockAdmissible(n, memOps, deadline) {
		return false, false
	}

	instr := c.Costs.Instr
	// Arm the self-modifying-code detector in storeExec for the block's
	// duration; outside blocks the sentinel never matches a store.
	c.codeGfn = gfn
	for {
		retired, st := c.retireRun(p, idx, n, memOps == 0)
		c.Cycles += retired * instr
		c.Instret += retired
		if st == stExit {
			c.codeGfn = mem.NoFrame
			return true, true
		}
		if st != stOK || idx+n < instPerPage {
			break
		}
		// The run was cut by the page boundary, not a terminator. Arm the
		// boundary pseudo-terminator: if the block ends here, the outer loop
		// consumes the chain link (or resolves one from its real fetch); a
		// link that validates and admits right now lets the block continue
		// in place instead.
		c.chainPage, c.chainSlot, c.chainArmed = p, instPerPage-1, true
		l := p.chainAt(instPerPage-1, c.PC)
		if !c.linkValid(l, c.PC) {
			break
		}
		tn := uint64(l.page.blkLen[l.tslot])
		tm := uint64(l.page.blkMem[l.tslot])
		if tn == 0 || !c.blockAdmissible(tn, tm, deadline) || !c.followLink(l) {
			break
		}
		p, gfn, idx, n, memOps = l.page, l.gfn, uint64(l.tslot), tn, tm
		c.ICache.Stats.Crossings++
		c.codeGfn = gfn
	}
	c.codeGfn = mem.NoFrame
	return false, true
}

// stBail is a retireRun-local status: the fetch replay could not prove the
// memoized translation still exact (TLB insert/flush under the fetch stream),
// so the run ended at an instruction boundary without retiring the slot.
const stBail = -1

// retireRun executes up to n straight-line predecoded instructions starting
// at slot idx of page p — the body loop shared by the superblock engine and
// the trace engine (trace.go), so the two retire instructions through
// literally the same code. The caller has already performed (or exactly
// replayed) the fetch translation of the first instruction; subsequent
// fetches replay through mmu.Context.ReplayFetchSpan. The caller batches the
// cycle/instret accounting for the retired count. Status is stOK when all n
// retired cleanly, stExit when the exit record is written, stTrap/stSMC when
// the run ended early at an instruction boundary (guest trap redirected
// control / the body stored into its own code page — both counted in
// retired), or stBail when the fetch replay failed before the slot retired.
//
// memless asserts the run contains no memory operations (blkMem == 0).
// Every such instruction — the straight-line set minus loads/stores is pure
// ALU plus FENCE — unconditionally retires with PC advancing one word:
// nothing can trap, exit, store into the code page, or touch the TLB or the
// fetch memo. The engine exploits that with a batched span replay
// (mmu.ReplayFetchSpan, bit-identical bookkeeping because no data-side
// touch can interleave with the folded fetch hits) and a body loop with no
// per-instruction replay or status dispatch.
func (c *CPU) retireRun(p *decodedPage, idx, n uint64, memless bool) (retired uint64, status int) {
	if memless && n > 1 && c.MMU.ReplayFetchSpan(c.PC, n-1) {
		for retired < n {
			j := idx + retired
			if p.valid[j>>6]&(1<<(j&63)) == 0 {
				p.ins[j] = isa.Decode(p.raw[j])
				p.fn[j] = execTable.For(p.ins[j].Op)
				p.valid[j>>6] |= 1 << (j & 63)
			}
			p.fn[j](c, p.ins[j], p.raw[j])
			retired++
		}
		return n, stOK
	}
	for retired < n {
		j := idx + retired
		if p.valid[j>>6]&(1<<(j&63)) == 0 {
			p.ins[j] = isa.Decode(p.raw[j])
			p.fn[j] = execTable.For(p.ins[j].Op)
			p.valid[j>>6] |= 1 << (j & 63)
		}
		in := p.ins[j]
		if retired > 0 && !c.MMU.ReplayFetchSpan(c.PC, 1) {
			return retired, stBail // TLB insert/flush under the fetch stream
		}
		retired++
		// Block-specialized execution: every instruction — stores included
		// — runs the slot's decode-time-resolved executor. Statuses stay
		// small ints and the rare exit goes to the exit record, keeping the
		// large Exit struct out of the per-instruction return path.
		if st := p.fn[j](c, in, p.raw[j]); st != stOK {
			// stExit, stTrap (control redirected) or stSMC (the run wrote
			// itself): the run ends here.
			return retired, st
		}
	}
	return retired, stOK
}
