// Package mem provides the memory substrate of the simulated machine: a host
// physical frame pool shared by all VMs on a host, and per-VM guest-physical
// address spaces mapped onto it.
//
// The pool supports reference-counted frame sharing, which is the foundation
// for content-based page deduplication (internal/ksm), copy-on-write VM
// cloning (internal/snapshot) and ballooning (internal/balloon). Frames are
// allocated lazily: a frame with no backing storage reads as zeros, so
// freshly booted VMs cost no host memory for untouched pages — mirroring how
// a real hypervisor demand-populates guest RAM. A whole-page write of zeros
// into such a frame leaves it lazily zero, so a migrated or restored zero
// page costs no host memory either; the same write into a frame that has
// an array clears it in place.
//
// Concurrency model. The pool is shared by every VM on a host, and the
// parallel execution engine (core.Host.RunParallel) runs VMs on concurrent
// worker goroutines, so the pool is goroutine-safe: it is striped into
// lock-protected shards (frame numbers interleave across shards, so one VM's
// demand-fill burst spreads) with per-shard free lists, while the global
// frame budget and all statistics are atomics. The per-frame *data* paths
// (Data, ReadAt, WriteAt) are deliberately unlocked: the refcount/COW
// protocol already guarantees a frame is only written by a holder of its
// sole reference (writes to shared frames panic), so data accesses never
// race. Each GuestPhys remains single-writer — only its VM's currently
// leased worker may access it during an epoch; cross-VM services (dedup,
// ballooning, migration) run serially at epoch barriers.
//
// Backing arrays are recycled: when a frame's last reference goes, DecRef
// retires its array onto the shard's bounded stack, and the next frame of
// that shard to be materialized takes it back (a KSM merge frees the very
// array the next COW break needs). Retired arrays move between workers only
// through the shard mutex — pushed by DecRef and popped by writable while
// holding it — so the lock orders the last use of an array under its old
// frame before its first use under the new one. An array is reachable only
// from a frame with refcount > 0; every holder of a page slice outside the
// pool (the GuestPhys read and write memos) is invalidated by the
// page-version or write-epoch bump of the unmap or remap that dropped the
// reference, before the array can be handed on.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"govisor/internal/isa"
)

// ErrOutOfFrames is returned when the host pool is exhausted. Overcommit
// policies (ballooning, dedup) exist to avoid hitting it.
var ErrOutOfFrames = errors.New("mem: host frame pool exhausted")

// NoFrame is the sentinel host frame number for "unmapped".
const NoFrame = ^uint64(0)

// defaultShards is the stripe count for pools large enough to matter; tiny
// pools (unit tests, deliberately starved overcommit scenarios) stay single-
// shard so exhaustion behaviour is trivially sequential.
const defaultShards = 8

// smallPoolFrames is the capacity below which a pool defaults to one shard.
const smallPoolFrames = 256

// retireCap bounds each shard's stack of retired backing arrays (8 shards ⇒
// at most 32 MiB held per pool). A fleet's merge-to-COW-break churn is served
// almost entirely at this depth; a deeper stack measured no further gain.
const retireCap = 1024

// poolShard is one lock stripe of the pool. A shard owns every frame number
// congruent to its index modulo the shard count; its frame and refcount
// tables are preallocated to the shard's exact capacity so the slice headers
// never change after construction — element accesses from concurrent workers
// need no lock.
type poolShard struct {
	mu   sync.Mutex
	cap  uint64   // frame numbers owned by this shard
	next uint64   // bump watermark: locals never yet handed out
	free []uint64 // recycled locals
	// frames maps local → backing bytes; nil ⇒ logically zero or free. A
	// non-nil array belongs to exactly one frame with refcount > 0: DecRef
	// moves it to retired (under mu) when the count reaches zero.
	frames  [][]byte
	retired [][]byte // arrays of freed frames awaiting reuse, ≤ retireCap (guarded by mu)
	refcnt  []uint32 // local → reference count (atomic access)
}

// Pool is a host physical memory: a fixed budget of 4 KiB frames with
// per-frame reference counts. Frame numbers are dense small integers, so
// the hot paths (every guest load/store resolves a frame) are slice
// lookups, not map probes.
type Pool struct {
	capacity uint64
	nshards  uint64
	shards   []poolShard

	inUse atomic.Uint64 // frames with refcnt > 0 (plus in-flight allocations)
	rotor atomic.Uint64 // round-robin start shard for unhinted allocation

	// Stats.
	allocs, frees, cowBreaks, sharedMerges atomic.Uint64
	recycled, retireDrops                  atomic.Uint64
}

// NewPool creates a host pool with the given capacity in frames, striped
// over a default shard count.
func NewPool(capacityFrames uint64) *Pool {
	shards := defaultShards
	if capacityFrames < smallPoolFrames {
		shards = 1
	}
	return NewPoolSharded(capacityFrames, shards)
}

// NewPoolSharded creates a host pool striped over exactly nshards lock
// shards. Shard count never changes semantics — only contention.
func NewPoolSharded(capacityFrames uint64, nshards int) *Pool {
	if nshards < 1 {
		nshards = 1
	}
	n := uint64(nshards)
	p := &Pool{capacity: capacityFrames, nshards: n, shards: make([]poolShard, n)}
	for s := uint64(0); s < n; s++ {
		// Shard s owns frame numbers ≡ s (mod n) below capacity.
		var scap uint64
		if capacityFrames > s {
			scap = (capacityFrames - s + n - 1) / n
		}
		sh := &p.shards[s]
		sh.cap = scap
		sh.frames = make([][]byte, scap)
		sh.refcnt = make([]uint32, scap)
	}
	return p
}

// shardOf splits a frame number into its owning shard and local index.
func (p *Pool) shardOf(hfn uint64) (*poolShard, uint64) {
	return &p.shards[hfn%p.nshards], hfn / p.nshards
}

// Capacity returns the pool size in frames.
func (p *Pool) Capacity() uint64 { return p.capacity }

// Shards returns the lock-stripe count.
func (p *Pool) Shards() int { return int(p.nshards) }

// InUse returns the number of live (refcnt > 0) frames.
func (p *Pool) InUse() uint64 { return p.inUse.Load() }

// Free returns the number of frames still allocatable.
func (p *Pool) Free() uint64 { return p.capacity - p.inUse.Load() }

// COWBreaks returns how many copy-on-write splits the pool has performed.
func (p *Pool) COWBreaks() uint64 { return p.cowBreaks.Load() }

// Merges returns how many frames have been merged by sharing.
func (p *Pool) Merges() uint64 { return p.sharedMerges.Load() }

// Recycled returns how many frames were materialized with a retired backing
// array instead of a fresh allocation.
func (p *Pool) Recycled() uint64 { return p.recycled.Load() }

// RetireDrops returns how many freed backing arrays found their shard's
// retire stack full and were left to the garbage collector.
func (p *Pool) RetireDrops() uint64 { return p.retireDrops.Load() }

// Alloc reserves a zero-filled frame and returns its frame number.
func (p *Pool) Alloc() (uint64, error) {
	return p.AllocNear(int(p.rotor.Add(1)))
}

// AllocNear is Alloc preferring the shard hint maps to (VMs pass a stable
// per-VM hint so their allocation streams stay on one stripe and mostly
// avoid cross-VM lock contention). It falls back to the other shards, so
// the global capacity is always fully usable.
func (p *Pool) AllocNear(hint int) (uint64, error) {
	// Reserve a unit of the global budget first; the reservation guarantees
	// some shard holds a free slot for as long as we keep scanning.
	for {
		cur := p.inUse.Load()
		if cur >= p.capacity {
			return NoFrame, ErrOutOfFrames
		}
		if p.inUse.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	n := p.nshards
	start := uint64(hint) % n
	for {
		for i := uint64(0); i < n; i++ {
			sh := &p.shards[(start+i)%n]
			sh.mu.Lock()
			var local uint64
			ok := false
			if ln := len(sh.free); ln > 0 {
				local = sh.free[ln-1]
				sh.free = sh.free[:ln-1]
				ok = true
			} else if sh.next < sh.cap {
				local = sh.next
				sh.next++
				ok = true
			}
			if ok {
				atomic.StoreUint32(&sh.refcnt[local], 1)
				sh.mu.Unlock()
				p.allocs.Add(1)
				return local*n + (start+i)%n, nil
			}
			sh.mu.Unlock()
		}
		// All shards momentarily full while a concurrent DecRef is between
		// returning its slot and publishing it: our budget reservation proves
		// a slot exists, so yield and rescan.
		runtime.Gosched()
	}
}

func (p *Pool) rc(hfn uint64) uint32 {
	if hfn >= p.capacity {
		return 0
	}
	sh, local := p.shardOf(hfn)
	return atomic.LoadUint32(&sh.refcnt[local])
}

// IncRef adds a reference to hfn (sharing).
func (p *Pool) IncRef(hfn uint64) {
	if hfn >= p.capacity {
		panic(fmt.Sprintf("mem: IncRef on free frame %d", hfn))
	}
	sh, local := p.shardOf(hfn)
	sh.mu.Lock()
	rc := atomic.LoadUint32(&sh.refcnt[local])
	if rc == 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("mem: IncRef on free frame %d", hfn))
	}
	atomic.StoreUint32(&sh.refcnt[local], rc+1)
	sh.mu.Unlock()
}

// DecRef drops a reference; the frame is freed when the count reaches zero.
func (p *Pool) DecRef(hfn uint64) {
	if hfn >= p.capacity {
		panic(fmt.Sprintf("mem: DecRef on free frame %d", hfn))
	}
	sh, local := p.shardOf(hfn)
	sh.mu.Lock()
	rc := atomic.LoadUint32(&sh.refcnt[local])
	if rc == 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("mem: DecRef on free frame %d", hfn))
	}
	if rc > 1 {
		atomic.StoreUint32(&sh.refcnt[local], rc-1)
		sh.mu.Unlock()
		return
	}
	atomic.StoreUint32(&sh.refcnt[local], 0)
	if b := sh.frames[local]; b != nil {
		if len(sh.retired) < retireCap {
			sh.retired = append(sh.retired, b)
		} else {
			p.retireDrops.Add(1)
		}
		sh.frames[local] = nil
	}
	sh.free = append(sh.free, local)
	sh.mu.Unlock()
	// Publish the slot before releasing the budget unit, so an allocator
	// that won the budget race can always find a slot.
	p.inUse.Add(^uint64(0))
	p.frees.Add(1)
}

// RefCount returns the current reference count of hfn (0 if free).
func (p *Pool) RefCount(hfn uint64) uint32 { return p.rc(hfn) }

// Shared reports whether hfn is mapped by more than one user.
func (p *Pool) Shared(hfn uint64) bool { return p.rc(hfn) > 1 }

// Data returns the backing bytes of hfn for reading, or nil if the frame is
// logically zero. Callers must not mutate the returned slice, and must hold
// a reference on hfn (the refcount protocol is what makes the unlocked
// element read safe).
func (p *Pool) Data(hfn uint64) []byte {
	if hfn >= p.capacity {
		return nil
	}
	sh, local := p.shardOf(hfn)
	return sh.frames[local]
}

// writable returns a materialized, mutable backing array for hfn. Callers
// hold the frame's sole reference (shared writes panic in WriteAt before
// reaching here), so the element store cannot race a legitimate reader.
// A logically-zero frame is materialized with a retired array when its
// shard has one, else a fresh one. whole says the caller overwrites the
// entire page at once, so a retired array's old content need not be
// cleared; otherwise it is, and the page reads as zeros until written.
func (p *Pool) writable(hfn uint64, whole bool) []byte {
	sh, local := p.shardOf(hfn)
	if b := sh.frames[local]; b != nil {
		return b
	}
	var b []byte
	sh.mu.Lock()
	if n := len(sh.retired); n > 0 {
		b = sh.retired[n-1]
		sh.retired[n-1] = nil
		sh.retired = sh.retired[:n-1]
	}
	sh.mu.Unlock()
	if b == nil {
		b = make([]byte, isa.PageSize)
	} else {
		p.recycled.Add(1)
		if !whole {
			clear(b)
		}
	}
	sh.frames[local] = b
	return b
}

// ReadAt copies frame contents at off into buf. Zero frames read as zeros.
func (p *Pool) ReadAt(hfn uint64, off int, buf []byte) {
	if b := p.Data(hfn); b != nil {
		copy(buf, b[off:])
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

// WriteAt copies buf into the frame at off. The caller must have resolved
// sharing first (see BreakCOW); writing a shared frame panics, because it
// would corrupt other VMs. A whole page of zeros written into a frame with
// no backing array leaves it lazily zero: the frame already reads as that.
// A frame that has an array keeps it and is cleared in place, because the
// read and write memos may still point at the array.
func (p *Pool) WriteAt(hfn uint64, off int, buf []byte) {
	if p.rc(hfn) > 1 {
		panic(fmt.Sprintf("mem: write to shared frame %d without COW break", hfn))
	}
	whole := off == 0 && len(buf) >= isa.PageSize
	if whole && p.Data(hfn) == nil && IsZeroPage(buf[:isa.PageSize]) {
		return
	}
	copy(p.writable(hfn, whole)[off:], buf)
}

// BreakCOW gives the caller a private copy of hfn: if the frame is shared, a
// new frame is allocated, the contents copied, and the old reference
// dropped. It returns the (possibly new) frame number.
func (p *Pool) BreakCOW(hfn uint64) (uint64, error) {
	return p.BreakCOWNear(hfn, int(hfn%p.nshards))
}

// BreakCOWNear is BreakCOW with an allocation shard hint for the copy.
func (p *Pool) BreakCOWNear(hfn uint64, hint int) (uint64, error) {
	if p.rc(hfn) <= 1 {
		return hfn, nil
	}
	nfn, err := p.AllocNear(hint)
	if err != nil {
		return NoFrame, err
	}
	// Reading the shared source unlocked is safe: every other holder may
	// only read it too (a writer would have had to break COW first).
	if src := p.Data(hfn); src != nil {
		copy(p.writable(nfn, true), src)
	}
	p.DecRef(hfn)
	p.cowBreaks.Add(1)
	return nfn, nil
}

// ShareInto replaces victim with canonical: callers (the dedup scanner)
// guarantee both frames hold identical content. The victim's reference moves
// to canonical and the victim frame is freed. Returns the canonical hfn.
func (p *Pool) ShareInto(canonical, victim uint64) uint64 {
	if canonical == victim {
		return canonical
	}
	p.IncRef(canonical)
	p.DecRef(victim)
	p.sharedMerges.Add(1)
	return canonical
}

// IsZero reports whether the frame currently holds all-zero content.
func (p *Pool) IsZero(hfn uint64) bool {
	b := p.Data(hfn)
	return b == nil || IsZeroPage(b)
}

// IsZeroPage reports whether b is all zero, a word at a time.
func IsZeroPage(b []byte) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}
