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
type baseScheduler struct {
	entities map[int]*Entity
	order    []int // stable iteration order

	leased        map[int]bool // excluded from Next until EndLease
	removePending map[int]bool // Remove arrived while leased; applied at EndLease

	run []*Entity // runnable's result, refilled by every call
}

func newBase() baseScheduler {
	return baseScheduler{
		entities:      make(map[int]*Entity),
		leased:        make(map[int]bool),
		removePending: make(map[int]bool),
	}
}

// Add registers an entity.
//
//govisor:serialonly(mutates the shared runqueue; scheduler topology changes are barrier-only)
func (b *baseScheduler) Add(id int, weight, capPct uint64) {
	if weight == 0 {
		weight = 1
	}
	if e, dup := b.entities[id]; dup {
		// Re-adding an entity whose removal is still pending behind a lease
		// is a fresh registration that cannot drop the in-flight lease's
		// accounting: cancel the removal and install the caller's new
		// parameters, but keep the entity (and its Used) live so the
		// pending Account still lands.
		if b.removePending[id] {
			delete(b.removePending, id)
			e.Weight, e.CapPct = weight, capPct
		}
		return
	}
	b.entities[id] = &Entity{ID: id, Weight: weight, CapPct: capPct}
	b.order = append(b.order, id)
}

// Remove deregisters an entity. Removing a currently-leased entity defers
// until EndLease so the in-flight quantum's Account still lands on live
// state — dropping it would leave Used (fairness) and the credit/CFS global
// accounting (periodSpent, total vruntime progress) silently short.
//
//govisor:serialonly(mutates the shared runqueue; scheduler topology changes are barrier-only)
func (b *baseScheduler) Remove(id int) {
	if b.leased[id] {
		b.removePending[id] = true
		return
	}
	b.remove(id)
}

func (b *baseScheduler) remove(id int) {
	delete(b.entities, id)
	delete(b.removePending, id)
	for i, v := range b.order {
		if v == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

// BeginLease marks id as dispatched for the current epoch: Next will not
// offer it again until EndLease.
func (b *baseScheduler) BeginLease(id int) {
	if _, ok := b.entities[id]; ok {
		b.leased[id] = true
	}
}

// EndLease returns id to the schedulable set and applies a Remove that
// arrived while the lease was outstanding.
func (b *baseScheduler) EndLease(id int) {
	delete(b.leased, id)
	if b.removePending[id] {
		b.remove(id)
	}
}

// Leased reports whether id is currently leased (test visibility).
func (b *baseScheduler) Leased(id int) bool { return b.leased[id] }

// Block marks an entity unrunnable.
func (b *baseScheduler) Block(id int) {
	if e := b.entities[id]; e != nil {
		e.Blocked = true
	}
}

// Entity exposes accounting state (experiments read Used).
func (b *baseScheduler) Entity(id int) *Entity { return b.entities[id] }

// Shares returns each live entity's consumed cycles, in registration order
// (input to metrics.JainIndex).
func (b *baseScheduler) Shares() []float64 {
	out := make([]float64, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, float64(b.entities[id].Used))
	}
	return out
}

// runnable lists the entities Next may pick, in registration order. The
// slice is the scheduler's own and valid only until the next call.
func (b *baseScheduler) runnable() []*Entity {
	b.run = b.run[:0]
	for _, id := range b.order {
		if e := b.entities[id]; e != nil && !e.Blocked && !b.leased[id] {
			b.run = append(b.run, e)
		}
	}
	return b.run
}

// RoundRobin is the baseline policy: equal quanta in registration order,
// ignoring weights and caps — the strawman the fairness experiment knocks
// down.
type RoundRobin struct {
	baseScheduler
	next    int
	Quantum uint64
}

// NewRoundRobin creates the policy with the given quantum in cycles.
func NewRoundRobin(quantum uint64) *RoundRobin {
	return &RoundRobin{baseScheduler: newBase(), Quantum: quantum}
}

// Next implements core.Scheduler.
func (r *RoundRobin) Next() (int, uint64, bool) {
	run := r.runnable()
	if len(run) == 0 {
		return 0, 0, false
	}
	e := run[r.next%len(run)]
	r.next++
	return e.ID, r.Quantum, true
}

// Account implements core.Scheduler.
func (r *RoundRobin) Account(id int, used uint64) {
	if e := r.entities[id]; e != nil {
		e.Used += used
	}
}

// Unblock implements core.Scheduler.
func (r *RoundRobin) Unblock(id int) {
	if e := r.entities[id]; e != nil {
		e.Blocked = false
	}
}
