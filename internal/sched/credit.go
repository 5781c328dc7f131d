package sched

// Credit is a Xen-style credit scheduler. Each accounting period it deals
// credits proportionally to weight; running burns credits; entities with
// positive credits are UNDER (preferred), negative are OVER. A blocked
// entity that wakes enters BOOST and preempts to the head of the queue —
// the mechanism that keeps latency-sensitive VMs responsive among CPU hogs.
// Caps throttle entities that exceeded their utilization allowance.
type Credit struct {
	baseScheduler

	Quantum     uint64 // cycles per dispatch
	Period      uint64 // credit refill period
	periodSpent uint64
	elapsed     uint64 // host cycles observed via Account
	primed      bool   // first credit deal done

	// Stats.
	Boosts, Throttles uint64
}

// Credit amounts are in cycle units: each period distributes Period cycles
// worth of credit across entities by weight.
const (
	defaultQuantum = 1_000_000  // 1 ms
	defaultPeriod  = 30_000_000 // 30 ms, as in Xen's 30 ms accounting
)

// NewCredit creates the scheduler with default Xen-like parameters.
func NewCredit() *Credit {
	return &Credit{Quantum: defaultQuantum, Period: defaultPeriod}
}

func (c *Credit) refill() {
	var totalWeight uint64
	for _, e := range c.order {
		if !e.Blocked {
			totalWeight += e.Weight
		}
	}
	if totalWeight == 0 {
		return
	}
	for _, e := range c.order {
		if e.Blocked {
			continue
		}
		share := int64(c.Period * e.Weight / totalWeight)
		e.credits += share
		// Cap accumulated credit so long sleeps don't bank unbounded time.
		if e.credits > int64(2*c.Period) {
			e.credits = int64(2 * c.Period)
		}
		// Cap enforcement bookkeeping: allowance this period.
		if e.CapPct > 0 {
			allowance := c.Period * e.CapPct / 100
			if e.capDebt > allowance {
				e.capDebt -= allowance
			} else {
				e.capDebt = 0
			}
		}
	}
}

// Next implements core.Scheduler: boosted first, then highest credit.
func (c *Credit) Next() (int, uint64, bool) {
	if !c.primed {
		// Deal the first round of credits immediately so weight ratios hold
		// from the first dispatch, as in Xen (credits exist before use).
		c.refill()
		c.primed = true
	}
	run := c.runnable()
	if len(run) == 0 {
		return 0, 0, false
	}
	var pick *Entity
	for _, e := range run {
		if e.CapPct > 0 && e.capDebt > c.Period*e.CapPct/100 {
			c.Throttles++
			continue // over cap: skip this period
		}
		switch {
		case pick == nil:
			pick = e
		case e.boosted && !pick.boosted:
			pick = e
		case e.boosted == pick.boosted && e.credits > pick.credits:
			pick = e
		}
	}
	if pick == nil {
		return 0, 0, false // everyone throttled
	}
	pick.boosted = false
	return pick.ID, c.Quantum, true
}

// Account implements core.Scheduler.
func (c *Credit) Account(id int, used uint64) {
	e := c.Entity(id)
	if e == nil {
		return
	}
	e.Used += used
	e.credits -= int64(used)
	if e.CapPct > 0 {
		e.capDebt += used
	}
	c.periodSpent += used
	c.elapsed += used
	if c.periodSpent >= c.Period {
		c.periodSpent = 0
		c.refill()
	}
}

// Unblock implements core.Scheduler: waking enters BOOST.
func (c *Credit) Unblock(id int) {
	e := c.Entity(id)
	if e == nil || !e.Blocked {
		return
	}
	e.Blocked = false
	e.boosted = true
	c.Boosts++
}
