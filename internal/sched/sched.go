// Package sched implements the vCPU schedulers the consolidation and
// fairness experiments compare: a round-robin baseline, a Xen-style credit
// scheduler (weights, caps, and a BOOST state for freshly woken entities),
// and a CFS-like fair scheduler driven by weighted virtual runtime.
//
// All three satisfy core.LeaseScheduler, the contract a core.Host runs
// under. Time is the host's simulated cycle count; schedulers are purely
// deterministic.
package sched

// Entity is the per-vCPU accounting state shared by the policies.
type Entity struct {
	ID      int
	Weight  uint64
	CapPct  uint64 // 0 = uncapped
	Blocked bool

	Used uint64 // total cycles consumed (for fairness measurement)

	leased   bool   // excluded from Next until EndLease
	credits  int64  // credit scheduler
	boosted  bool   // credit scheduler: woken and not yet rescheduled
	vruntime uint64 // cfs
	capDebt  uint64 // cycles consumed beyond the cap allowance
}

// baseScheduler holds the entity table shared by the policies, plus the
// lease bookkeeping the host's epoch engine uses: an epoch leases several
// distinct entities with BeginLease (each excluded from Next until its
// EndLease), runs them concurrently, and applies Account/EndLease serially
// at the epoch barrier.
//
// Ids are small non-negative integers (a host's VM indices), sparse and
// registered in any order. order is the table every policy walks, in
// registration order; byID indexes the same entities by id.
type baseScheduler struct {
	order []*Entity
	byID  []*Entity

	run []*Entity // runnable's result, refilled by every call
}

// Add registers an entity; adding a registered id again is a no-op.
//
//govisor:serialonly(mutates the shared runqueue; scheduler topology changes are barrier-only)
func (b *baseScheduler) Add(id int, weight, capPct uint64) {
	if b.Entity(id) != nil {
		return
	}
	if weight == 0 {
		weight = 1
	}
	e := &Entity{ID: id, Weight: weight, CapPct: capPct}
	if id >= len(b.byID) {
		b.byID = append(b.byID, make([]*Entity, id+1-len(b.byID))...)
	}
	b.byID[id] = e
	b.order = append(b.order, e)
}

// Entity returns the entity registered as id, or nil (experiments read
// Used).
func (b *baseScheduler) Entity(id int) *Entity {
	if id < 0 || id >= len(b.byID) {
		return nil
	}
	return b.byID[id]
}

// BeginLease marks id as dispatched for the current epoch: Next will not
// offer it again until EndLease.
func (b *baseScheduler) BeginLease(id int) {
	if e := b.Entity(id); e != nil {
		e.leased = true
	}
}

// EndLease returns id to the schedulable set.
func (b *baseScheduler) EndLease(id int) {
	if e := b.Entity(id); e != nil {
		e.leased = false
	}
}

// Block marks an entity unrunnable.
func (b *baseScheduler) Block(id int) {
	if e := b.Entity(id); e != nil {
		e.Blocked = true
	}
}

// Shares returns each entity's consumed cycles, in registration order
// (input to metrics.JainIndex).
func (b *baseScheduler) Shares() []float64 {
	out := make([]float64, 0, len(b.order))
	for _, e := range b.order {
		out = append(out, float64(e.Used))
	}
	return out
}

// runnable lists the entities Next may pick, in registration order. The
// slice is the scheduler's own and valid only until the next call.
func (b *baseScheduler) runnable() []*Entity {
	b.run = b.run[:0]
	for _, e := range b.order {
		if !e.Blocked && !e.leased {
			b.run = append(b.run, e)
		}
	}
	return b.run
}

// RoundRobin is the baseline policy: equal quanta in registration order,
// ignoring weights and caps — the strawman the fairness experiment knocks
// down. A cursor circles the registration order: each pick is the first
// runnable entity after the last pick, so one that stays runnable waits at
// most n-1 picks, whatever blocks, unblocks or is leased meanwhile.
type RoundRobin struct {
	baseScheduler
	next    int // order index the next pick's scan starts at
	Quantum uint64
}

// NewRoundRobin creates the policy with the given quantum in cycles.
func NewRoundRobin(quantum uint64) *RoundRobin {
	return &RoundRobin{Quantum: quantum}
}

// Next implements core.Scheduler.
func (r *RoundRobin) Next() (int, uint64, bool) {
	n := len(r.order)
	for i := range n {
		j := (r.next + i) % n
		if e := r.order[j]; !e.Blocked && !e.leased {
			r.next = j + 1
			return e.ID, r.Quantum, true
		}
	}
	return 0, 0, false
}

// Account implements core.Scheduler.
func (r *RoundRobin) Account(id int, used uint64) {
	if e := r.Entity(id); e != nil {
		e.Used += used
	}
}

// Unblock implements core.Scheduler.
func (r *RoundRobin) Unblock(id int) {
	if e := r.Entity(id); e != nil {
		e.Blocked = false
	}
}
