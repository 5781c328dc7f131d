// Package vnet implements the virtual L2 switch connecting VM network
// devices. Frames carry 6-byte destination and source MAC addresses in their
// first 12 bytes (Ethernet-style); the switch learns source addresses and
// forwards unicast frames to the learned port, flooding unknown and
// broadcast destinations. Delivery is deterministic in both of its modes,
// which keeps the networking experiments reproducible: synchronous (the
// default — Send forwards before it returns) and epoch-deferred (parallel
// host execution — Send queues on the sending port, Flush delivers at the
// epoch barrier).
//
// Three properties make the switch fleet-scale:
//
//   - Deferred frames carry the sender's simulated-cycle timestamp, and
//     Flush delivers in (timestamp, port id, send order). Arrival order
//     reflects simulated time — not worker interleaving and not flat port
//     order — so it is invariant across RunParallel worker counts and
//     matches what a serial run observes at the same simulated instant.
//   - A deferred frame is copied once, into the sending port's epoch arena,
//     and handed to receivers as a slice of that arena. An arena is a list
//     of fixed-size chunks; Flush hands a drained queue's chunks back to its
//     port, and the port's next epoch fills them again, so a port holds one
//     epoch's bytes whichever of its two queues is active. Each port keeps
//     its queue stamp-ordered as it sends, so Flush is a k-way merge over
//     the ports rather than a sort: in steady state neither Send nor Flush
//     allocates.
//   - The forwarding database is sharded by MAC and the port list is an
//     atomic snapshot, so forwards from thousands of ports never serialize
//     on one switch-wide mutex.
package vnet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MAC is a 6-byte hardware address.
type MAC [6]byte

// Broadcast is the all-ones MAC.
var Broadcast = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// String formats the address conventionally.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACForVM derives a stable locally-administered MAC from a VM id.
func MACForVM(id uint32) MAC {
	return MAC{0x02, 0x67, 0x76, byte(id >> 16), byte(id >> 8), byte(id)}
}

// chunkSize is the capacity of one arena chunk. A frame never straddles two
// chunks, and a frame longer than a chunk gets a chunk of its own size.
const chunkSize = 64 << 10

// frameRef locates one deferred frame in its queue's arena — the chunk and
// the offset in it — and carries the simulated cycle at which its owner
// sent it.
type frameRef struct {
	chunk, off, len uint32
	stamp           uint64
}

// epochQueue holds one epoch's deferred frames of one port: the bytes back
// to back in chunks, and refs in delivery order — stamp-ascending, send
// order among equal stamps. tail is the last chunk, filled so far; the
// entries of chunks keep length zero, and Flush slices them by capacity.
type epochQueue struct {
	chunks [][]byte
	tail   []byte
	refs   []frameRef
}

// Port is one switch attachment point. It satisfies dev.NetBackend.
type Port struct {
	sw       *Switch
	id       int
	receiver func(frame []byte)
	clock    func() uint64 // sender's simulated-cycle source; nil stamps 0

	// Deferred frames. Send fills queues[active]; Flush flips active before
	// it delivers out of the filled queue, so a Send made from inside a
	// delivery lands in the other queue and waits for the next Flush. Once
	// Flush has drained a queue, its chunks go to spare, where the next
	// Send that needs a chunk finds them.
	queues [2]epochQueue
	active int
	spare  [][]byte

	TxFrames, RxFrames uint64
}

// Send transmits a frame from this port into the switch. The frame is the
// caller's to reuse once Send returns: in synchronous mode every receiver
// has run by then, and with the switch in deferred mode the bytes have been
// copied into the sending port's epoch arena (owner-only state, so
// concurrent VM workers never contend), stamped with the sender's simulated
// cycle, to be delivered by the next Flush in timestamp order.
func (p *Port) Send(frame []byte) {
	p.TxFrames++
	if !p.sw.deferred.Load() {
		p.sw.forward(p, frame)
		return
	}
	var stamp uint64
	if p.clock != nil {
		stamp = p.clock()
	}
	q := &p.queues[p.active]
	if q.tail == nil || len(q.tail)+len(frame) > cap(q.tail) {
		q.tail = p.chunk(len(frame))
		q.chunks = append(q.chunks, q.tail)
	}
	ref := frameRef{chunk: uint32(len(q.chunks) - 1), off: uint32(len(q.tail)),
		len: uint32(len(frame)), stamp: stamp}
	q.tail = append(q.tail, frame...)
	// Place the ref after the last one stamped no later than it, which is
	// (stamp, send order) within the port. A simulated clock only moves
	// forward, so this is one compare against the tail; a clock that steps
	// back costs an insertion, not a different path.
	i := len(q.refs)
	q.refs = append(q.refs, ref)
	for ; i > 0 && q.refs[i-1].stamp > stamp; i-- {
		q.refs[i] = q.refs[i-1]
	}
	q.refs[i] = ref
}

// chunk returns an empty chunk that holds at least size bytes: a spare one
// if the port has one, else a new one. A frame longer than chunkSize gets a
// chunk of its own size, which is never recycled.
func (p *Port) chunk(size int) []byte {
	if size > chunkSize {
		return make([]byte, 0, size)
	}
	if n := len(p.spare) - 1; n >= 0 {
		c := p.spare[n]
		p.spare = p.spare[:n]
		return c
	}
	return make([]byte, 0, chunkSize)
}

// recycle empties a drained queue and gives its chunks of chunkSize to the
// port's spare list. A chunk holds no frame once its queue is drained. If
// the active queue is still empty, it takes whichever ref and chunk lists
// are larger, so only one list of each per port ever grows.
func (p *Port) recycle(q *epochQueue) {
	for _, c := range q.chunks {
		if cap(c) == chunkSize {
			p.spare = append(p.spare, c)
		}
	}
	clear(q.chunks)
	q.chunks, q.tail, q.refs = q.chunks[:0], nil, q.refs[:0]
	if a := &p.queues[p.active]; len(a.refs) == 0 {
		if cap(a.refs) < cap(q.refs) {
			a.refs, q.refs = q.refs, a.refs
		}
		if cap(a.chunks) < cap(q.chunks) {
			a.chunks, q.chunks = q.chunks, a.chunks
		}
	}
}

// SetClock registers the simulated-cycle source used to stamp deferred
// frames. Ports without a clock stamp 0, which sorts ahead of every clocked
// frame and (via the port-id/send-order tie-break) reproduces plain port
// order among themselves.
func (p *Port) SetClock(fn func() uint64) { p.clock = fn }

// SetReceiver registers the frame sink for this port. The frame passed to fn
// is valid only for the duration of the call — it is the sender's buffer in
// synchronous mode and a slice of an epoch arena under Flush, and both are
// reused — so a receiver copies what it keeps.
func (p *Port) SetReceiver(fn func(frame []byte)) { p.receiver = fn }

// Switch returns the switch this port attaches to.
func (p *Port) Switch() *Switch { return p.sw }

func (p *Port) deliver(frame []byte) {
	p.RxFrames++
	if p.receiver != nil {
		p.receiver(frame)
	}
}

// fdbShards must be a power of two; 16 keeps shard contention negligible for
// thousands of ports while the per-shard maps stay cache-friendly.
const fdbShards = 16

// fdbShard is one slice of the forwarding database.
type fdbShard struct {
	mu sync.Mutex
	m  map[MAC]*Port
}

// fdbIndex hashes all six address bytes so sequential MACForVM addresses
// (which differ only in their low bytes) spread across shards.
func fdbIndex(mac MAC) int {
	h := uint32(2166136261)
	for _, b := range mac {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h & (fdbShards - 1))
}

// Switch is a learning L2 switch.
type Switch struct {
	mu       sync.Mutex // port registration only
	ports    atomic.Pointer[[]*Port]
	shards   [fdbShards]fdbShard
	deferred atomic.Bool
	merge    []mergeCursor // Flush's heap, reused across epochs

	// Stats, atomically updated: forwards from different ports touch
	// disjoint FDB shards concurrently in synchronous mode.
	Forwarded, Flooded, Dropped uint64
}

// NewSwitch creates an empty switch.
func NewSwitch() *Switch {
	s := &Switch{}
	for i := range s.shards {
		s.shards[i].m = make(map[MAC]*Port)
	}
	s.ports.Store(&[]*Port{})
	return s
}

// NewPort attaches a new port. Registration copies the port snapshot so
// forwards read it lock-free.
func (s *Switch) NewPort() *Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.ports.Load()
	p := &Port{sw: s, id: len(old)}
	next := make([]*Port, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	s.ports.Store(&next)
	return p
}

// Ports returns the number of attached ports.
func (s *Switch) Ports() int { return len(*s.ports.Load()) }

// Learn installs a static forwarding entry: frames addressed to mac unicast
// to p without waiting for p to transmit. Purely passive receivers (a VM
// that only posts RX buffers) are otherwise unreachable except by flood.
func (s *Switch) Learn(mac MAC, p *Port) {
	sh := &s.shards[fdbIndex(mac)]
	sh.mu.Lock()
	sh.m[mac] = p
	sh.mu.Unlock()
}

// lookup consults the FDB shard for mac.
func (s *Switch) lookup(mac MAC) (*Port, bool) {
	sh := &s.shards[fdbIndex(mac)]
	sh.mu.Lock()
	p, ok := sh.m[mac]
	sh.mu.Unlock()
	return p, ok
}

// Stats returns the forwarding counters with atomic loads, safe to call
// while forwards are in flight.
func (s *Switch) Stats() (forwarded, flooded, dropped uint64) {
	return atomic.LoadUint64(&s.Forwarded), atomic.LoadUint64(&s.Flooded), atomic.LoadUint64(&s.Dropped)
}

func frameMACs(frame []byte) (dst, src MAC, ok bool) {
	if len(frame) < 12 {
		return dst, src, false
	}
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	return dst, src, true
}

func (s *Switch) forward(from *Port, frame []byte) {
	dst, src, ok := frameMACs(frame)
	if !ok {
		atomic.AddUint64(&s.Dropped, 1)
		return
	}
	// Learn only unicast sources: a broadcast (or multicast) source MAC is
	// never a legitimate station address, and learning it would let a
	// later frame *to* the broadcast group-bit space unicast-forward.
	if src[0]&1 == 0 {
		s.Learn(src, from)
	}
	if dst != Broadcast {
		if p, known := s.lookup(dst); known {
			if p == from {
				// Hairpin: the destination lives on the sending port. A
				// real switch filters these; flooding them (the old
				// behaviour) duplicated the frame to every other segment.
				atomic.AddUint64(&s.Dropped, 1)
				return
			}
			atomic.AddUint64(&s.Forwarded, 1)
			p.deliver(frame)
			return
		}
	}
	// Flood: every port except the sender.
	atomic.AddUint64(&s.Flooded, 1)
	for _, p := range *s.ports.Load() {
		if p != from {
			p.deliver(frame)
		}
	}
}

// SetDeferred switches between synchronous delivery (the default: Send
// forwards immediately) and epoch-deferred delivery for parallel host
// execution: Send queues on the sending port and Flush — called serially at
// the epoch barrier — performs the actual forwarding. Deferral makes inter-
// VM traffic independent of worker interleaving: frames are delivered in
// (timestamp, port id, send order) rather than in goroutine arrival order.
// core.Host.RunParallel flips every switch its VMs attach to into deferred
// mode automatically for the duration of the run.
//
//govisor:serialonly(flips delivery mode for every attached VM; barrier-only)
func (s *Switch) SetDeferred(on bool) { s.deferred.Store(on) }

// Deferred reports the current delivery mode.
func (s *Switch) Deferred() bool { return s.deferred.Load() }

// mergeCursor is one port's position in a Flush: the queue being drained,
// the next ref to deliver and that ref's stamp (cached as the heap key).
type mergeCursor struct {
	stamp uint64
	port  *Port
	q     *epochQueue
	next  int
}

// before orders cursors by (stamp, port id): the delivery order between
// ports. Order within a port is the queue's own.
func (c *mergeCursor) before(d *mergeCursor) bool {
	if c.stamp != d.stamp {
		return c.stamp < d.stamp
	}
	return c.port.id < d.port.id
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []mergeCursor, i int) {
	for {
		first := i
		if l := 2*i + 1; l < len(h) && h[l].before(&h[first]) {
			first = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(&h[first]) {
			first = r
		}
		if first == i {
			return
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// Flush forwards every queued frame in (timestamp, port id, send order):
// arrival order reflects the simulated instant each frame was sent, with the
// port id and per-port send order as deterministic tie-breaks. Every port's
// queue is already in (timestamp, send order), so Flush merges the queues
// through a binary heap keyed on each one's next frame: O(F log P) compares,
// no sort and — the heap and the arenas being reused — no allocation.
//
// Each port with frames queued is flipped to its other queue before the
// first delivery, so a receiver that Sends from inside a delivery queues for
// the next Flush, never this one. Frames are delivered as slices of the
// sender's arena, whose chunks go back to the port once it is drained, to
// be refilled by its next Sends (see SetReceiver for what that asks of
// receivers).
//
// Flush must be called from the epoch barrier (or any other single-threaded
// context), never from a receiver, and returns the number of frames
// delivered to the switch.
//
//govisor:serialonly(delivers into every attached VM's RX ring; barrier-only)
func (s *Switch) Flush() int {
	h := s.merge[:0]
	for _, p := range *s.ports.Load() {
		q := &p.queues[p.active]
		if len(q.refs) == 0 {
			continue
		}
		p.active ^= 1
		h = append(h, mergeCursor{stamp: q.refs[0].stamp, port: p, q: q})
	}
	s.merge = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	delivered := 0
	for len(h) > 0 {
		c := &h[0]
		r := c.q.refs[c.next]
		end := r.off + r.len
		s.forward(c.port, c.q.chunks[r.chunk][r.off:end:end])
		delivered++
		if c.next++; c.next < len(c.q.refs) {
			c.stamp = c.q.refs[c.next].stamp
		} else {
			c.port.recycle(c.q)
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return delivered
}

// BuildFrame assembles dst|src|payload.
func BuildFrame(dst, src MAC, payload []byte) []byte {
	frame := make([]byte, 12+len(payload))
	copy(frame[0:6], dst[:])
	copy(frame[6:12], src[:])
	copy(frame[12:], payload)
	return frame
}
