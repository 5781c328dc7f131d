// Package balloon implements the host-side memory overcommit policy that
// drives virtio-balloon devices: given a host pool under pressure, it
// decides how much memory to reclaim from which VMs (proportional-share
// with a reserve floor), and models the "swap" cost a guest pays when it
// touches a reclaimed page. Experiment T10 sweeps the overcommit ratio.
package balloon

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/virtio"
)

// Target is the policy output for one VM.
type Target struct {
	VM    int
	Pages uint64 // balloon size to request (pages leased to the host)
}

// Policy computes balloon targets for a set of VMs over one pool.
type Policy struct {
	// ReserveFrames keeps headroom in the pool before any reclaim starts.
	ReserveFrames uint64
	// FloorPages is the minimum resident set each VM must keep.
	FloorPages uint64
}

// DefaultPolicy returns a policy with a small reserve and a 32-page floor.
func DefaultPolicy() Policy {
	return Policy{ReserveFrames: 16, FloorPages: 32}
}

// Compute sizes each VM's balloon so the pool regains the reserve. Demand
// is measured by present pages; reclaim is apportioned proportionally to
// each VM's resident set above its floor.
func (p Policy) Compute(pool *mem.Pool, vms []*mem.GuestPhys) []Target {
	targets := make([]Target, len(vms))
	for i := range targets {
		targets[i].VM = i
	}
	free := pool.Free()
	if free >= p.ReserveFrames {
		return targets // no pressure: all balloons deflate to zero
	}
	need := p.ReserveFrames - free

	var reclaimable uint64
	above := make([]uint64, len(vms))
	for i, g := range vms {
		if g.Present() > p.FloorPages {
			above[i] = g.Present() - p.FloorPages
			reclaimable += above[i]
		}
	}
	if reclaimable == 0 {
		return targets
	}
	if need > reclaimable {
		need = reclaimable
	}
	for i := range vms {
		targets[i].Pages = need * above[i] / reclaimable
	}
	return targets
}

// Controller connects the policy to concrete balloon devices.
type Controller struct {
	Policy   Policy
	Pool     *mem.Pool
	Balloons []*virtio.Balloon
	Spaces   []*mem.GuestPhys
	// Swap, when set, preserves evicted page contents (host swapping);
	// ReclaimOne requires it to evict non-zero pages safely.
	Swap *Swapper

	// Stats.
	Adjustments uint64
}

// Rebalance recomputes targets and pushes them into the device config
// spaces; guests react by inflating/deflating on their next poll.
//
//govisor:serialonly(reads every VM's memory pressure and writes device config; cross-VM)
func (c *Controller) Rebalance() {
	targets := c.Policy.Compute(c.Pool, c.Spaces)
	for i, t := range targets {
		if i < len(c.Balloons) && c.Balloons[i].Target() != t.Pages {
			c.Balloons[i].SetTarget(t.Pages)
			c.Adjustments++
		}
	}
}

// Swapper is the host swap device behind emergency reclaim: evicted pages
// keep their contents in host-side storage and return on demand through the
// VM's PageSource hook. Unlike ballooning (where the guest hands over pages
// it knows are free), swap may evict any page — kernel text, page tables —
// so content preservation is what keeps the guest correct under thrash.
//
// A zero page keeps no copy, by the memory pool's zero rule: its slot holds
// the shared zeroPage, and swapping it back in through GuestPhys.WriteRaw
// leaves the new frame lazily zero.
type Swapper struct {
	store map[*mem.GuestPhys]map[uint64][]byte

	SwapOuts, SwapIns uint64
}

// zeroPage is every zero page's swap slot. It is shared and read-only:
// PageSource consumers copy out of it and never write it.
var zeroPage = make([]byte, isa.PageSize)

// NewSwapper creates an empty swap device.
func NewSwapper() *Swapper {
	return &Swapper{store: make(map[*mem.GuestPhys]map[uint64][]byte)}
}

// SwapOut saves gfn's contents and releases its frame.
func (s *Swapper) SwapOut(g *mem.GuestPhys, gfn uint64) {
	page := zeroPage
	if hfn := g.Frame(gfn); hfn != mem.NoFrame && !g.Pool().IsZero(hfn) {
		page = make([]byte, isa.PageSize)
		g.ReadRaw(gfn, page)
	}
	m := s.store[g]
	if m == nil {
		m = make(map[uint64][]byte)
		s.store[g] = m
	}
	m[gfn] = page
	g.Unmap(gfn)
	s.SwapOuts++
}

// Source returns a PageSource function for g: a not-present fault on a
// swapped page restores its contents (and forgets the swap slot). The page
// it hands back is read-only.
func (s *Swapper) Source(g *mem.GuestPhys) func(gfn uint64) ([]byte, bool) {
	return func(gfn uint64) ([]byte, bool) {
		m := s.store[g]
		if m == nil {
			return nil, false
		}
		page, ok := m[gfn]
		if !ok {
			return nil, false
		}
		delete(m, gfn)
		s.SwapIns++
		return page, true
	}
}

// ReclaimOne swaps out one reclaimable page (LRU approximation: the
// highest-numbered present, unprotected, preferably non-dirty page). It is
// the emergency path behind core.VM.ReclaimHook when a guest faults while
// the pool is empty. When the controller has a Swapper, contents are
// preserved and restored on the next touch; without one, reclaim refuses to
// run (dropping arbitrary page contents would corrupt the guest) unless the
// page is still zero-filled. Returns false if nothing could be reclaimed.
//
//govisor:serialonly(steals frames from other VMs' address spaces; cross-VM)
func (c *Controller) ReclaimOne() bool {
	var victim *mem.GuestPhys
	victimGfn := uint64(0)
	found := false
	for _, g := range c.Spaces {
		for gfn := g.Pages(); gfn > 0; gfn-- {
			i := gfn - 1
			if g.Frame(i) == mem.NoFrame || g.WriteProtected(i) || g.Pinned(i) {
				continue
			}
			if !found || !g.Dirty(i) {
				victim, victimGfn, found = g, i, true
				if !g.Dirty(i) {
					break
				}
			}
		}
		if found && !victim.Dirty(victimGfn) {
			break
		}
	}
	if !found {
		return false
	}
	if c.Swap != nil {
		c.Swap.SwapOut(victim, victimGfn)
		return true
	}
	// No swap device: only zero-filled pages are safe to drop.
	hfn := victim.Frame(victimGfn)
	if hfn == mem.NoFrame || !c.Pool.IsZero(hfn) {
		return false
	}
	victim.Unmap(victimGfn)
	return true
}
