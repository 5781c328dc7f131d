package sched

import (
	"testing"

	"govisor/internal/metrics"
)

// drive simulates a dispatch loop: every runnable entity consumes exactly
// its granted quantum, for n dispatches.
func drive(s interface {
	Next() (int, uint64, bool)
	Account(id int, used uint64)
}, n int) {
	for i := 0; i < n; i++ {
		id, q, ok := s.Next()
		if !ok {
			return
		}
		s.Account(id, q)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin(100)
	rr.Add(1, 1, 0)
	rr.Add(2, 1, 0)
	rr.Add(3, 1, 0)
	var seq []int
	for i := 0; i < 6; i++ {
		id, q, ok := rr.Next()
		if !ok || q != 100 {
			t.Fatal("next failed")
		}
		seq = append(seq, id)
		rr.Account(id, q)
	}
	want := []int{1, 2, 3, 1, 2, 3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v", seq)
		}
	}
}

func TestRoundRobinIgnoresWeights(t *testing.T) {
	rr := NewRoundRobin(100)
	rr.Add(1, 10, 0)
	rr.Add(2, 1, 0)
	drive(rr, 100)
	e1, e2 := rr.Entity(1), rr.Entity(2)
	if e1.Used != e2.Used {
		t.Fatalf("rr should split equally: %d vs %d", e1.Used, e2.Used)
	}
}

func TestRoundRobinSkipsBlocked(t *testing.T) {
	rr := NewRoundRobin(100)
	rr.Add(1, 1, 0)
	rr.Add(2, 1, 0)
	rr.Block(1)
	for i := 0; i < 5; i++ {
		id, _, ok := rr.Next()
		if !ok || id != 2 {
			t.Fatalf("got %d", id)
		}
		rr.Account(id, 100)
	}
	rr.Unblock(1)
	found := false
	for i := 0; i < 3; i++ {
		id, _, _ := rr.Next()
		rr.Account(id, 100)
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("unblocked entity never ran")
	}
}

func TestNothingRunnable(t *testing.T) {
	for _, s := range []interface {
		Add(int, uint64, uint64)
		Block(int)
		Next() (int, uint64, bool)
	}{NewRoundRobin(100), NewCredit(), NewCFS()} {
		if _, _, ok := s.Next(); ok {
			t.Fatal("empty scheduler returned an entity")
		}
		s.Add(1, 1, 0)
		s.Block(1)
		if _, _, ok := s.Next(); ok {
			t.Fatal("blocked-only scheduler returned an entity")
		}
	}
}

func TestCreditWeightsProportional(t *testing.T) {
	c := NewCredit()
	c.Add(1, 256, 0) // weight 2x
	c.Add(2, 128, 0)
	drive(c, 3000)
	u1, u2 := c.Entity(1).Used, c.Entity(2).Used
	ratio := float64(u1) / float64(u2)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("weight 2:1 gave ratio %.2f (%d vs %d)", ratio, u1, u2)
	}
}

func TestCreditCapEnforced(t *testing.T) {
	c := NewCredit()
	c.Add(1, 256, 25) // capped at 25%
	c.Add(2, 256, 0)
	drive(c, 4000)
	u1, u2 := c.Entity(1).Used, c.Entity(2).Used
	share := float64(u1) / float64(u1+u2) * 100
	if share > 35 {
		t.Fatalf("capped entity got %.1f%%", share)
	}
	if c.Throttles == 0 {
		t.Fatal("cap never throttled")
	}
}

func TestCreditBoostPreempts(t *testing.T) {
	c := NewCredit()
	c.Add(1, 256, 0) // hog
	c.Add(2, 256, 0) // sleeper
	c.Block(2)
	drive(c, 50) // hog burns credits
	c.Unblock(2) // sleeper wakes → BOOST
	id, _, ok := c.Next()
	if !ok || id != 2 {
		t.Fatalf("woken entity should preempt, got %d", id)
	}
	if c.Boosts != 1 {
		t.Fatalf("boosts = %d", c.Boosts)
	}
}

func TestCreditFairnessEqualWeights(t *testing.T) {
	c := NewCredit()
	for i := 1; i <= 4; i++ {
		c.Add(i, 256, 0)
	}
	drive(c, 4000)
	if jain := metrics.JainIndex(c.Shares()); jain < 0.98 {
		t.Fatalf("credit fairness = %.3f", jain)
	}
}

func TestCFSFairnessEqualWeights(t *testing.T) {
	c := NewCFS()
	for i := 1; i <= 4; i++ {
		c.Add(i, 1024, 0)
	}
	drive(c, 4000)
	if jain := metrics.JainIndex(c.Shares()); jain < 0.98 {
		t.Fatalf("cfs fairness = %.3f", jain)
	}
}

func TestCFSWeightsProportional(t *testing.T) {
	c := NewCFS()
	c.Add(1, 4096, 0) // 4x weight
	c.Add(2, 1024, 0)
	drive(c, 5000)
	ratio := float64(c.Entity(1).Used) / float64(c.Entity(2).Used)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("weight 4:1 gave ratio %.2f", ratio)
	}
}

func TestCFSWakeDoesNotStarveOrMonopolize(t *testing.T) {
	c := NewCFS()
	c.Add(1, 1024, 0)
	c.Add(2, 1024, 0)
	c.Block(2)
	drive(c, 100) // entity 1 accumulates vruntime
	c.Unblock(2)  // entity 2 wakes at min vruntime, not zero
	// If it woke at vruntime 0 it would monopolize for ~100 dispatches.
	counts := map[int]int{}
	for i := 0; i < 20; i++ {
		id, q, _ := c.Next()
		c.Account(id, q)
		counts[id]++
	}
	if counts[2] > 15 {
		t.Fatalf("woken entity monopolized: %v", counts)
	}
	if counts[2] == 0 {
		t.Fatalf("woken entity starved: %v", counts)
	}
}

func TestAddDuplicateIgnored(t *testing.T) {
	c := NewCFS()
	c.Add(1, 1024, 0)
	c.Add(1, 2048, 0)
	if c.Entity(1).Weight != 1024 {
		t.Fatal("duplicate add should be ignored")
	}
}

func TestZeroWeightNormalized(t *testing.T) {
	c := NewCredit()
	c.Add(1, 0, 0)
	if c.Entity(1).Weight == 0 {
		t.Fatal("zero weight must be normalized")
	}
	drive(c, 10) // must not divide by zero
}
