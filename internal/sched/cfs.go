package sched

// CFS is a completely-fair-scheduler-like policy: each entity accrues
// weighted virtual runtime (used × referenceWeight ÷ weight) and the entity
// with the least vruntime runs next. Waking entities are placed at the
// current minimum so they neither starve nor monopolize.
type CFS struct {
	baseScheduler
	Quantum uint64
	used    uint64 // every entity's Used summed: entities never leave, so Account keeps it
}

// referenceWeight normalizes vruntime (weight 1024 ≈ nice 0, as in Linux).
const referenceWeight = 1024

// NewCFS creates the policy.
func NewCFS() *CFS {
	return &CFS{Quantum: defaultQuantum}
}

func (c *CFS) minVruntime() uint64 {
	var m uint64
	first := true
	for _, e := range c.order {
		if e.Blocked {
			continue
		}
		if first || e.vruntime < m {
			m = e.vruntime
			first = false
		}
	}
	return m
}

// Next implements core.Scheduler: least vruntime wins; caps throttle.
func (c *CFS) Next() (int, uint64, bool) {
	run := c.runnable()
	if len(run) == 0 {
		return 0, 0, false
	}
	var pick *Entity
	for _, e := range run {
		if e.CapPct > 0 {
			// An entity past its cap relative to total progress is skipped.
			if c.used > 0 && e.Used*100 > c.used*e.CapPct {
				continue
			}
		}
		if pick == nil || e.vruntime < pick.vruntime {
			pick = e
		}
	}
	if pick == nil {
		return 0, 0, false
	}
	return pick.ID, c.Quantum, true
}

// Account implements core.Scheduler.
func (c *CFS) Account(id int, used uint64) {
	e := c.Entity(id)
	if e == nil {
		return
	}
	e.Used += used
	c.used += used
	e.vruntime += used * referenceWeight / e.Weight
}

// Unblock implements core.Scheduler: wake at the current minimum vruntime.
func (c *CFS) Unblock(id int) {
	e := c.Entity(id)
	if e == nil || !e.Blocked {
		return
	}
	// Compute the floor before marking runnable, so the woken entity's own
	// stale vruntime cannot become the minimum.
	floor := c.minVruntime()
	e.Blocked = false
	if e.vruntime < floor {
		e.vruntime = floor
	}
}
