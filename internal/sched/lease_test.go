package sched

import "testing"

// leasePolicy is the surface the parallel host engine drives; all three
// policies provide it through baseScheduler.
type leasePolicy interface {
	Add(id int, weight, capPct uint64)
	Next() (int, uint64, bool)
	Account(id int, used uint64)
	Block(id int)
	Unblock(id int)
	BeginLease(id int)
	EndLease(id int)
	Entity(id int) *Entity
	Shares() []float64
}

func policies() map[string]func() leasePolicy {
	return map[string]func() leasePolicy{
		"rr":     func() leasePolicy { return NewRoundRobin(1000) },
		"credit": func() leasePolicy { return NewCredit() },
		"cfs":    func() leasePolicy { return NewCFS() },
	}
}

// TestLeaseExcludesFromNext: leasing an entity must make Next hand out the
// remaining runnable entities, each exactly once, then report nothing left.
func TestLeaseExcludesFromNext(t *testing.T) {
	for name, mk := range policies() {
		s := mk()
		for id := 0; id < 4; id++ {
			s.Add(id, 256, 0)
		}
		seen := map[int]bool{}
		for i := 0; i < 4; i++ {
			id, _, ok := s.Next()
			if !ok {
				t.Fatalf("%s: Next dried up after %d leases", name, i)
			}
			if seen[id] {
				t.Fatalf("%s: entity %d leased twice in one epoch", name, id)
			}
			seen[id] = true
			s.BeginLease(id)
		}
		if _, _, ok := s.Next(); ok {
			t.Fatalf("%s: Next offered a leased entity", name)
		}
		for id := range seen {
			s.Account(id, 500)
			s.EndLease(id)
		}
		if _, _, ok := s.Next(); !ok {
			t.Fatalf("%s: nothing runnable after leases ended", name)
		}
	}
}

// TestBlockWhileLeased: a lease finishing on a now-blocked entity must leave
// it out of the runnable set but keep its accounting.
func TestBlockWhileLeased(t *testing.T) {
	for name, mk := range policies() {
		s := mk()
		s.Add(0, 256, 0)
		s.Add(1, 256, 0)
		id, _, _ := s.Next()
		s.BeginLease(id)
		s.Block(id)
		s.Account(id, 999)
		s.EndLease(id)
		other := 1 - id
		for i := 0; i < 4; i++ {
			got, _, ok := s.Next()
			if !ok {
				t.Fatalf("%s: runnable entity starved", name)
			}
			if got != other {
				t.Fatalf("%s: blocked entity %d dispatched", name, got)
			}
			s.Account(got, 100)
		}
		s.Unblock(id)
		if e := s.Entity(id); e == nil || e.Used != 999 {
			t.Fatalf("%s: accounting lost across block", name)
		}
	}
}

// TestLeaseUnknownEntityHarmless: leasing an id that was never added must
// not wedge the scheduler.
func TestLeaseUnknownEntityHarmless(t *testing.T) {
	for name, mk := range policies() {
		s := mk()
		s.BeginLease(42)
		s.EndLease(42)
		s.Add(0, 256, 0)
		if _, _, ok := s.Next(); !ok {
			t.Fatalf("%s: scheduler wedged by phantom lease", name)
		}
	}
}
