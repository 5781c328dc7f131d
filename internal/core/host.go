package core

import (
	"fmt"

	"govisor/internal/mem"
)

// Scheduler is the vCPU scheduling policy a Host consults. Implementations
// live in internal/sched (round-robin, Xen-style credit, CFS-like fair);
// the interface is defined here so core does not depend on any policy.
type Scheduler interface {
	// Add registers a runnable entity with a proportional weight and an
	// optional utilization cap in percent (0 = uncapped).
	Add(id int, weight uint64, capPct uint64)
	// Next picks the entity to run and the quantum (in cycles) to grant.
	// ok is false when nothing is runnable.
	Next() (id int, quantum uint64, ok bool)
	// Account reports the cycles the entity actually consumed.
	Account(id int, used uint64)
	// Block marks an entity not runnable (idle/halted); Unblock reverses.
	// Unblock MUST be a no-op for entities that are not blocked: RunParallel
	// calls it every epoch to resync after device IRQs or Resume make a VM
	// runnable outside the timer wake path, so a policy that treats every
	// Unblock as a wake event (boost, requeue) would be distorted.
	Block(id int)
	Unblock(id int)
}

// LeaseScheduler is the scheduler contract a Host runs under: BeginLease
// excludes an entity from Next until EndLease, so one serial lease phase
// hands out distinct (VM, quantum) pairs for an epoch. All schedulers in
// internal/sched implement it.
type LeaseScheduler interface {
	Scheduler
	BeginLease(id int)
	EndLease(id int)
}

// Host is one simulated physical machine: a frame pool shared by its VMs, a
// vCPU scheduler multiplexing them over PCPUs simulated cores, and a global
// host clock.
type Host struct {
	Pool  *mem.Pool
	VMs   []*VM
	Sched LeaseScheduler
	// PCPUs is the number of physical cores the host time model assumes:
	// with N VMs and C cores, aggregate guest progress per host cycle is
	// min(N, C).
	PCPUs int

	// Now is the host clock in cycles.
	Now uint64

	// Quantum is the default scheduling quantum when the scheduler does not
	// dictate one.
	Quantum uint64

	// EpochFunc, when set, runs serially at every RunParallel epoch barrier.
	// It is where cross-VM effects belong: KSM scan rounds, balloon policy,
	// migration pre-copy rounds, deferred virtual-switch delivery
	// (vnet.Switch.Flush). Nothing else may touch more than one VM while an
	// epoch is in flight.
	EpochFunc func()

	// slots is the host's per-VM record, indexed like VMs; wakeSleepers
	// grows it to cover VMs created since the last epoch.
	slots []vmSlot
}

// vmSlot is what the host keeps per VM between epochs — the host times of
// its pending wake, runqueue entry and idle start — and, during an epoch,
// the VM's lease: quantum is fixed in the lease phase, used is written by
// the worker that runs the VM and read back at the barrier.
type vmSlot struct {
	id       int
	wake     hostTime // an idle VM's armed timer deadline
	runnable hostTime // when a woken VM joined the runqueue
	idle     hostTime // when the VM went idle (device-wake clock sync)

	quantum, used uint64
}

// hostTime is a host clock reading that may be unset. The clock starts at
// 0, so 0 is a real time and cannot stand for "unset".
type hostTime struct {
	at  uint64
	set bool
}

// DefaultQuantum is 1 ms of guest time at the nominal clock.
const DefaultQuantum = 1_000_000

// NewHost creates a host with the given memory budget in frames.
func NewHost(poolFrames uint64, pcpus int, sched LeaseScheduler) *Host {
	if pcpus <= 0 {
		pcpus = 1
	}
	return &Host{
		Pool:    mem.NewPool(poolFrames),
		Sched:   sched,
		PCPUs:   pcpus,
		Quantum: DefaultQuantum,
	}
}

// CreateVM creates and registers a VM on this host. Each VM's allocation
// stream is hinted onto its own pool shard so concurrent demand fills under
// RunParallel mostly avoid each other's locks.
func (h *Host) CreateVM(cfg Config) (*VM, error) {
	vm, err := NewVM(h.Pool, cfg)
	if err != nil {
		return nil, err
	}
	vm.Mem.SetAllocHint(len(h.VMs))
	h.VMs = append(h.VMs, vm)
	return vm, nil
}

// AddToScheduler registers VM index i with the scheduler.
func (h *Host) AddToScheduler(i int, weight, capPct uint64) {
	h.Sched.Add(i, weight, capPct)
}

// parkIfNotRunning blocks a VM that is not in the running state and, if it
// went idle, records at — the wall time it actually stopped executing (the
// end of its consumed slice, not the dispatch time, or the already-consumed
// quantum would be double-charged): an idle guest's clock tracks wall time,
// so a later device wake charges the gap (timer wakes compute the same
// thing from the armed deadline instead).
//
//govisor:serialonly(edits the shared scheduler and the host's idle record; epoch prologue and barrier only)
func (h *Host) parkIfNotRunning(id int, at uint64) {
	vm := h.VMs[id]
	if vm.State == StateRunning {
		return
	}
	h.Sched.Block(id)
	if s := &h.slots[id]; vm.State == StateIdle && !s.idle.set {
		s.idle = hostTime{at, true}
	}
}

// wakeSleepers wakes idle VMs whose timers have fired on the host clock and
// returns the number of runnable VMs. It is the serial prologue of every
// RunParallel epoch, and grows the per-VM record to cover VMs created since
// the last one.
//
//govisor:serialonly(touches every VM and the shared scheduler; epoch prologue only)
func (h *Host) wakeSleepers() int {
	for len(h.slots) < len(h.VMs) {
		h.slots = append(h.slots, vmSlot{id: len(h.slots)})
	}
	runnable := 0
	for i, vm := range h.VMs {
		s := &h.slots[i]
		if vm.State == StateIdle {
			cmp := vm.CPU.CSR.Stimecmp
			if !s.wake.set && cmp != 0 {
				// The guest sleeps until its deadline, in wall time.
				sleep := uint64(0)
				if cmp > vm.CPU.Cycles {
					sleep = cmp - vm.CPU.Cycles
				}
				s.wake = hostTime{h.Now + sleep, true}
			}
			if s.wake.set && h.Now >= s.wake.at {
				// Wall time passed while asleep (plus any lateness).
				late := h.Now - s.wake.at
				if cmp > vm.CPU.Cycles {
					vm.CPU.Cycles = cmp
				}
				vm.CPU.AddCycles(late)
				s.wake, s.idle = hostTime{}, hostTime{}
				vm.State = StateRunning
				h.Sched.Unblock(i)
				// From here until dispatch the VM sits on the runqueue;
				// that wait is wall time its clock must absorb, so the
				// guest's own latency measurement sees scheduling delay.
				s.runnable = hostTime{h.Now, true}
			}
		} else {
			s.wake = hostTime{}
			if vm.State == StateRunning {
				if s.idle.set {
					// A device IRQ woke this guest out of WFI: while idle
					// its clock tracked wall time, so it absorbs the wait
					// before resuming (the timer path above computes the
					// same charge from the armed deadline), and the
					// runqueue delay until dispatch is charged like any
					// other wake.
					if h.Now > s.idle.at {
						vm.CPU.AddCycles(h.Now - s.idle.at)
					}
					s.runnable = hostTime{h.Now, true}
				}
				// Resync the scheduler: a device IRQ or Resume makes a VM
				// runnable without passing through the timer wake above,
				// and it would otherwise sit blocked forever. No-op when
				// the entity is not blocked.
				h.Sched.Unblock(i)
			}
			s.idle = hostTime{}
		}
		if vm.State == StateRunning {
			runnable++
		}
	}
	return runnable
}

// advanceToNextWake moves the clock to the earliest pending timer wake. It
// returns false when no wake is pending — the host has nothing left to do.
//
//govisor:serialonly(moves the shared host clock; epoch prologue only)
func (h *Host) advanceToNextWake() bool {
	var next hostTime
	for _, s := range h.slots {
		if s.wake.set && (!next.set || s.wake.at < next.at) {
			next = s.wake
		}
	}
	if !next.set {
		return false
	}
	if next.at > h.Now {
		h.Now = next.at
	} else {
		h.Now++
	}
	return true
}

// clampToNextWake bounds a lease's quantum so it cannot run past the next
// pending timer wake. A leased VM occupies its own simulated core, so its
// cycle room equals the wall room left before the wake.
//
//govisor:serialonly(reads every VM's pending wake; lease phase only)
func (h *Host) clampToNextWake(quantum uint64) uint64 {
	for _, s := range h.slots {
		if !s.wake.set {
			continue
		}
		if s.wake.at > h.Now {
			quantum = min(quantum, s.wake.at-h.Now)
		} else {
			quantum = 1
		}
	}
	return max(quantum, 1)
}

// chargeRunqueueWait applies the wall time VM id spent waiting on the
// runqueue since it woke (the scheduling-delay component of wakeup latency).
//
//govisor:serialonly(edits the host's runqueue record; lease phase only)
func (h *Host) chargeRunqueueWait(id int) {
	if s := &h.slots[id]; s.runnable.set {
		if h.Now > s.runnable.at {
			h.VMs[id].CPU.AddCycles(h.Now - s.runnable.at)
		}
		s.runnable = hostTime{}
	}
}

// AllHalted reports whether every VM reached a terminal state.
func (h *Host) AllHalted() bool {
	for _, vm := range h.VMs {
		if vm.State != StateHalted && vm.State != StateError {
			return false
		}
	}
	return true
}

// String summarizes the host.
func (h *Host) String() string {
	return fmt.Sprintf("host{vms=%d, pool=%d/%d frames, now=%d}",
		len(h.VMs), h.Pool.InUse(), h.Pool.Capacity(), h.Now)
}
