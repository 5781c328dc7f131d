package core

import (
	"sync"

	"govisor/internal/vnet"
)

// RunParallel is how a Host runs: it multiplexes the host's VMs under the
// scheduler, executing each epoch's leased VMs concurrently on a pool of
// host worker goroutines (one worker runs them serially). It runs until
// every VM has halted (or errored), or until the host clock advances by
// limit, and returns the host cycles elapsed.
//
// The engine is built so that every guest-visible outcome is independent of
// both the worker count and goroutine interleaving:
//
//   - Epoch schedule. Each epoch, the serial prologue wakes timers and then
//     leases up to min(runnable, PCPUs) distinct VMs from the scheduler
//     (BeginLease keeps Next from repeating an entity). The schedule is
//     fixed before any worker runs.
//   - Concurrent execution. Workers run vm.Step for the leased VMs. A VM's
//     entire state (vCPU, MMU, TLB, icache, devices, GuestPhys) is touched
//     only by the worker holding its lease; the one shared structure, the
//     host frame pool, is lock-striped and goroutine-safe, and frame numbers
//     are not guest-visible.
//   - Epoch barrier. Accounting, scheduler state edges, the clock advance
//     and EpochFunc (KSM scans, balloon policy, migration rounds, deferred
//     vnet delivery — every cross-VM effect) run serially, in lease order.
//
// The host clock advances by the longest lease actually consumed: each
// leased VM occupies its own simulated core for the epoch. This is gang
// scheduling — a VM that exits its quantum early still holds its core until
// the barrier — and preserves min(N, PCPUs) aggregate progress.
//
// Idle VMs are tickless: a WFI guest's clock keeps tracking wall (host)
// time, so when its timer fires the guest observes both the sleep and any
// scheduling delay before it was redispatched — which is exactly what the
// wakeup-latency experiment (F11) measures.
//
// Known limits:
//
//   - Frame-pool exhaustion races. If concurrent leases allocate the pool's
//     final frames mid-epoch, which VM sees ErrOutOfFrames can vary with
//     interleaving.
//   - VM.ReclaimHook and VM.PageSource run on the faulting VM's worker,
//     mid-epoch. A hook that touches only host-side or own-VM state is
//     safe, but one that reclaims from *other* VMs' address spaces (the
//     balloon Controller pattern) would mutate state a concurrent worker
//     owns. Under RunParallel, overcommit pressure must instead be resolved
//     from EpochFunc — shrink the fleet at the barrier so mid-epoch
//     allocation never hits the wall — which also makes the outcome
//     deterministic.
func (h *Host) RunParallel(workers int, limit uint64) uint64 {
	if h.Sched == nil {
		panic("core: host has no scheduler")
	}
	if workers < 1 {
		workers = 1
	}
	// Inter-VM networking must not race across workers: flip every switch
	// the fleet's NICs attach to into epoch-deferred delivery for the
	// duration of the run. Frames queue on the sending port and deliver at
	// the epoch barrier, in (port id, send order).
	switches, restoreSwitches := h.deferSwitches()
	defer restoreSwitches()

	jobs := make(chan *vmSlot)
	defer close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		go func() {
			for l := range jobs {
				l.used = h.VMs[l.id].Step(l.quantum)
				wg.Done()
			}
		}()
	}

	leases := make([]*vmSlot, 0, h.PCPUs)
	start := h.Now
	for h.Now-start < limit {
		runnable := h.wakeSleepers()
		if runnable == 0 {
			if !h.advanceToNextWake() {
				return h.Now - start
			}
			continue
		}
		par := max(min(runnable, h.PCPUs), 1)

		// Lease phase (serial): fix this epoch's schedule.
		leases = leases[:0]
		for len(leases) < par {
			id, quantum, ok := h.Sched.Next()
			if !ok {
				break
			}
			if quantum == 0 {
				quantum = h.Quantum
			}
			if h.VMs[id].State != StateRunning {
				h.parkIfNotRunning(id, h.Now)
				continue
			}
			// Host timer preemption: never run an epoch past the next
			// pending timer wake.
			quantum = h.clampToNextWake(quantum)
			h.chargeRunqueueWait(id)
			h.Sched.BeginLease(id)
			l := &h.slots[id]
			l.quantum = quantum
			leases = append(leases, l)
		}
		if len(leases) == 0 {
			h.Now += h.Quantum // all entities capped/throttled: host idles
			continue
		}

		// Execute phase: the schedule is already fixed, so interleaving
		// cannot affect any guest-visible outcome.
		wg.Add(len(leases))
		for _, l := range leases {
			jobs <- l
		}
		wg.Wait()

		// Barrier phase (serial, in lease order).
		var epochWall uint64
		for _, l := range leases {
			h.Sched.Account(l.id, l.used)
			h.Sched.EndLease(l.id)
			// A lease that went idle stopped executing at epoch start +
			// consumed cycles (its own simulated core ran 1:1 with wall).
			h.parkIfNotRunning(l.id, h.Now+l.used)
			epochWall = max(epochWall, l.used)
		}
		h.Now += max(epochWall, 1) // ensure forward progress
		// Barrier-time frame delivery (or EpochFunc work) may raise IRQs
		// that wake idle VMs; the next epoch's wakeSleepers resyncs the
		// scheduler with any VM a device made runnable.
		for _, sw := range switches {
			sw.Flush()
		}
		if h.EpochFunc != nil {
			h.EpochFunc()
		}
	}
	return h.Now - start
}

// deferSwitches flips every switch attached to this host's VMs into epoch-
// deferred delivery, returning the distinct switches plus a restore func
// that flushes any leftover frames and reinstates each switch's prior mode.
func (h *Host) deferSwitches() ([]*vnet.Switch, func()) {
	var switches []*vnet.Switch
	prior := make(map[*vnet.Switch]bool)
	for _, vm := range h.VMs {
		for _, port := range vm.netPorts {
			sw := port.Switch()
			if _, seen := prior[sw]; seen {
				continue
			}
			prior[sw] = sw.Deferred()
			sw.SetDeferred(true)
			switches = append(switches, sw)
		}
	}
	return switches, func() {
		for _, sw := range switches {
			sw.Flush()
			sw.SetDeferred(prior[sw])
		}
	}
}
