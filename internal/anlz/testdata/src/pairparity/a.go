package pptest

import "sync/atomic"

type C struct {
	Cycles  uint64
	Instret uint64
	misses  uint64
	scratch []byte
	pend    exit
}

type exit struct{ reason int }

// Negative: arms mutate the same integer fields (order and idiom differ).
//
//govisor:pair slowAdd
func (c *C) fastAdd() {
	c.Instret++
	c.Cycles += 2
}

func (c *C) slowAdd() {
	c.Cycles++
	c.Instret += 1
}

// Positive: the fast path forgot the Instret bump the reference arm has.
//
//govisor:pair slowDrift
func (c *C) fastDrift() { // want "does not mutate"
	c.Cycles++
}

func (c *C) slowDrift() {
	c.Cycles++
	c.Instret++
}

// Positive: the fast path grew a bump the reference arm lacks.
//
//govisor:pair slowExtra
func (c *C) fastExtra() { // want "reference arm slowExtra does not"
	c.Cycles++
	c.Instret++
}

func (c *C) slowExtra() {
	c.Instret++
}

// Negative: write-sets are transitive through same-package helpers.
//
//govisor:pair slowVia
func (c *C) fastVia() {
	c.bumpCycles()
}

func (c *C) bumpCycles() { c.Cycles++ }

func (c *C) slowVia() { c.Cycles++ }

// Negative: non-integer fields are outside the counter contract.
//
//govisor:pair slowBuf
func (c *C) fastBuf() {
	c.Cycles++
	c.scratch = append(c.scratch, 0)
}

func (c *C) slowBuf() { c.Cycles++ }

// Negative: the fast-rule → reference-rule shape (loadExec → execLoad). The
// fast arm reports a small status and parks the rare exit in a struct-typed
// field; the reference rule returns the exit. Both charge the same counters,
// through the same helper on the exit path.
//
//govisor:pair refRule
func (c *C) fastRule(ok bool) int {
	if !ok {
		c.pend = c.leave()
		return 1
	}
	c.Cycles++
	return 0
}

func (c *C) refRule(ok bool) (exit, bool) {
	if !ok {
		return c.leave(), true
	}
	c.Cycles++
	return exit{}, false
}

func (c *C) leave() exit {
	c.Instret++
	return exit{reason: 1}
}

// Negative: the snapshot-replay shape (ChainFetch/ReplayFetchSpan) — the fast
// arm's bumps sit behind early-return validation checks, but the write-set
// is flow-insensitive, so parity with the unconditional reference holds.
//
//govisor:pair slowReplay
func (c *C) fastReplay(ok bool) bool {
	if !ok {
		return false
	}
	c.Cycles++
	c.Instret++
	return true
}

func (c *C) slowReplay() {
	c.Instret++
	c.Cycles++
}

// Positive: a guarded replay arm whose failure path stamps telemetry the
// reference arm lacks — counters must be bumped at the call site instead.
//
//govisor:pair slowGuarded
func (c *C) fastGuarded(ok bool) bool { // want "reference arm slowGuarded does not"
	if !ok {
		c.misses++
		return false
	}
	c.Cycles++
	return true
}

func (c *C) slowGuarded() { c.Cycles++ }

// Positive: a dangling pair reference is itself a finding.
//
//govisor:pair vanished
func (c *C) orphan() { // want "not found"
	c.Cycles++
}

// Negative: an atomic Load is an observation, not a mutation — a fast path
// validating against an epoch counter its reference arm never touches has
// not drifted.
//
//govisor:pair slowEpochRef
func (c *C) fastEpochProbe() {
	if atomic.LoadUint64(&c.Instret) == 0 {
		return
	}
	c.Cycles++
}

func (c *C) slowEpochRef() { c.Cycles++ }

// Positive: mutating atomics still count — an atomic Add the reference arm
// lacks is drift like any other bump.
//
//govisor:pair slowAtomicAdd
func (c *C) fastAtomicAdd() { // want "reference arm slowAtomicAdd does not"
	atomic.AddUint64(&c.misses, 1)
	c.Cycles++
}

func (c *C) slowAtomicAdd() { c.Cycles++ }

// Negative: publication slots. A memo entry's tag and armed flag are only
// ever stored and loaded atomically — where a cached verdict lives, not a
// count of work — so a fast arm that fills a memo its reference arm never
// touches has not drifted.
type memoSlot struct {
	tag   uint64
	armed uint32
}

//govisor:pair slowFill
func (c *C) fastFill(m *memoSlot, tag uint64) {
	if atomic.LoadUint64(&m.tag) != tag {
		atomic.StoreUint64(&m.tag, tag)
	}
	if atomic.LoadUint32(&m.armed) == 0 {
		atomic.StoreUint32(&m.armed, 1)
	}
	c.Cycles++
}

func (c *C) slowFill() { c.Cycles++ }

// Positive: an atomic Add makes a field a counter even when every access is
// atomic — the rule exempts publication (Load/Store), not atomicity.
type hitStats struct{ hits uint64 }

//govisor:pair slowCount
func (c *C) fastCount(s *hitStats) uint64 { // want "reference arm slowCount does not"
	atomic.AddUint64(&s.hits, 1)
	c.Cycles++
	return atomic.LoadUint64(&s.hits)
}

func (c *C) slowCount() { c.Cycles++ }

// Positive: one plain access anywhere makes an atomically stored field a
// counter again.
type seqSlot struct{ seq uint64 }

//govisor:pair slowSeq
func (c *C) fastSeq(s *seqSlot) { // want "reference arm slowSeq does not"
	atomic.StoreUint64(&s.seq, 1)
	c.Cycles++
}

func (c *C) slowSeq(s *seqSlot) uint64 {
	c.Cycles++
	return s.seq
}
