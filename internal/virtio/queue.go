// Package virtio implements paravirtual I/O: split virtqueues living in
// guest memory and the virtio-blk, virtio-net, virtio-console and
// virtio-balloon device models served over them.
//
// The design follows the virtio split-ring specification: a descriptor
// table, an available ring the guest produces into, and a used ring the
// device produces into. The guest batches work and issues a single doorbell
// MMIO write ("kick"); the device drains the available ring synchronously
// and signals completion through the interrupt controller. One exit per
// batch instead of one exit per register access is precisely the
// paravirtual advantage quantified in experiment T6.
package virtio

import (
	"encoding/binary"
	"fmt"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Descriptor flags.
const (
	DescNext  uint16 = 1 // chain continues at Next
	DescWrite uint16 = 2 // device writes this buffer (guest reads it)
)

const descSize = 16

// Layout computes the memory addresses of a queue's three rings when packed
// contiguously at base: descriptor table, available ring, used ring. It
// returns the first address past the queue.
func Layout(base uint64, num uint16) (desc, avail, used, end uint64) {
	desc = base
	avail = desc + uint64(num)*descSize
	// avail: flags u16 + idx u16 + ring[num] u16, then align 8.
	used = (avail + 4 + 2*uint64(num) + 7) &^ 7
	// used: flags u16 + idx u16 + ring[num]{id u32, len u32}, align 8.
	end = (used + 4 + 8*uint64(num) + 7) &^ 7
	return desc, avail, used, end
}

// DescBuf is one resolved descriptor in a chain.
type DescBuf struct {
	Addr   uint64 // guest-physical buffer address
	Len    uint32
	Device bool // device-writable (DescWrite)
}

// maxStage bounds the guest-readable bytes a backend stages in one gather
// (see Queue.gather): 64 KiB covers the largest TSO-style frame, a console
// write, and a balloon page array of 8192 frame numbers. A descriptor length
// is a guest-written uint32 and must not size a host allocation.
const maxStage = 64 << 10

// Chain is one request: the head descriptor index plus resolved buffers.
// Buf is the queue's own scratch, so a Chain is valid until the next Pop on
// the queue it came from: a backend finishes (and Pushes) one chain before
// it pops the next.
type Chain struct {
	Head uint16
	Buf  []DescBuf
}

// Queue is the device-side view of one virtqueue.
type Queue struct {
	g     *mem.GuestPhys
	num   uint16
	desc  uint64
	avail uint64
	used  uint64
	ready bool

	lastAvail uint16

	// usedIdx is the device-owned shadow of the used-ring producer index.
	// The device never re-reads the index from guest memory: a guest (or a
	// corruption) scribbling used.idx would otherwise redirect completions
	// over arbitrary slots, and a read fault would return 0 and pin every
	// completion to slot 0. The shadow advances monotonically and is written
	// out on each Push.
	usedIdx uint16

	// notified is usedIdx as of the last used-buffer interrupt decision
	// (MMIODev.notify).
	notified uint16

	// chainBuf backs the Buf of the Chain the latest Pop returned.
	chainBuf []DescBuf

	// stage backs the bytes the latest gather returned. It grows to the
	// largest gather served, which maxStage bounds.
	stage []byte

	// Stats.
	Kicks, Chains, Malformed uint64
}

// Configure points the queue at guest memory. num must be a power of two.
func (q *Queue) Configure(g *mem.GuestPhys, num uint16, desc, avail, used uint64) error {
	if num == 0 || num&(num-1) != 0 {
		return fmt.Errorf("virtio: queue size %d not a power of two", num)
	}
	q.g = g
	q.num = num
	q.desc, q.avail, q.used = desc, avail, used
	q.ready = true
	q.lastAvail = 0
	q.usedIdx = 0
	q.notified = 0
	return nil
}

// Ready reports whether the queue has been configured.
func (q *Queue) Ready() bool { return q.ready }

// Num returns the configured ring size.
func (q *Queue) Num() uint16 { return q.num }

func (q *Queue) read16(gpa uint64) uint16 {
	v, f := q.g.ReadUint(gpa, 2)
	if f != nil {
		return 0
	}
	return uint16(v)
}

// availIdx reads the guest's producer index.
func (q *Queue) availIdx() uint16 { return q.read16(q.avail + 2) }

// Pending reports whether unprocessed chains are available.
func (q *Queue) Pending() bool {
	return q.ready && q.availIdx() != q.lastAvail
}

// Pop fetches the next well-formed available chain, resolving its
// descriptors. Malformed chains — a descriptor-read fault, or a chain longer
// than the ring (a cycle, necessarily) — are completed immediately with
// written=0 and counted in Malformed, so the guest's descriptors return to
// the used ring instead of leaking until the ring wedges; Pop then moves on
// to the next pending chain.
func (q *Queue) Pop() (Chain, bool) {
	for q.Pending() {
		slot := uint64(q.lastAvail % q.num)
		head := q.read16(q.avail + 4 + 2*slot)
		q.lastAvail++
		if ch, ok := q.resolve(head); ok {
			q.Chains++
			return ch, true
		}
		q.Malformed++
		q.Push(head, 0)
	}
	return Chain{}, false
}

// serve drains the queue: each chain Pop returns is handled, then pushed
// with the device-written byte count handle returns.
func (q *Queue) serve(handle func(Chain) uint32) {
	for {
		ch, ok := q.Pop()
		if !ok {
			return
		}
		q.Push(ch.Head, handle(ch))
	}
}

// resolve walks one descriptor chain from head. A chain may reference each
// of the ring's num descriptors at most once, so num hops is the longest
// well-formed walk; the num+1th hop proves a cycle. The descriptors land in
// q.chainBuf, overwriting the previous chain's.
func (q *Queue) resolve(head uint16) (Chain, bool) {
	q.chainBuf = q.chainBuf[:0]
	idx := head
	for hops := 0; hops < int(q.num); hops++ {
		d := q.desc + uint64(idx%q.num)*descSize
		var raw [descSize]byte
		if f := q.g.Read(d, raw[:]); f != nil {
			break
		}
		addr := binary.LittleEndian.Uint64(raw[0:])
		length := binary.LittleEndian.Uint32(raw[8:])
		flags := binary.LittleEndian.Uint16(raw[12:])
		next := binary.LittleEndian.Uint16(raw[14:])
		q.chainBuf = append(q.chainBuf, DescBuf{Addr: addr, Len: length, Device: flags&DescWrite != 0})
		if flags&DescNext == 0 {
			return Chain{Head: head, Buf: q.chainBuf}, true
		}
		idx = next
	}
	return Chain{Head: head}, false
}

// Push records a completed chain in the used ring, advancing the
// device-owned shadow producer index (see usedIdx — guest memory is written,
// never read back). The ring obeys the rule data DMA does: a write to a
// write-protected page (a shadow-tracked or pinned page-table page) faults
// and is dropped.
func (q *Queue) Push(head uint16, written uint32) {
	slot := uint64(q.usedIdx % q.num)
	entry := q.used + 4 + 8*slot
	q.g.WriteUint(entry, 4, uint64(head))
	q.g.WriteUint(entry+4, 4, uint64(written))
	q.usedIdx++
	q.g.WriteUint(q.used+2, 2, uint64(q.usedIdx))
}

// UsedIdx returns the device's producer index as the guest observes it.
func (q *Queue) UsedIdx() uint16 { return q.read16(q.used + 2) }

// ensure demand-populates the pages under a DMA target: device access to a
// lazily allocated guest buffer must behave like pinned DMA memory, not
// fault.
func (q *Queue) ensure(gpa uint64, n int) {
	if n <= 0 {
		return
	}
	for p := gpa >> isa.PageShift; p <= (gpa+uint64(n)-1)>>isa.PageShift; p++ {
		if err := q.g.Populate(p); err != nil {
			return // out of range or pool exhausted: the access will fault
		}
	}
}

// ReadFrom copies a descriptor buffer out of guest memory.
func (q *Queue) ReadFrom(b DescBuf, buf []byte) error {
	n := int(b.Len)
	if n > len(buf) {
		n = len(buf)
	}
	q.ensure(b.Addr, n)
	if f := q.g.Read(b.Addr, buf[:n]); f != nil {
		return f
	}
	return nil
}

// gather copies the guest-readable buffers of bufs, in order, into the
// queue's staging buffer and returns the bytes, valid until the next gather
// on q. It reports false, reading nothing, when the readable lengths sum
// past maxStage, and false when a read faults: a caller must not act on
// bytes the guest never wrote.
func (q *Queue) gather(bufs []DescBuf) ([]byte, bool) {
	var total uint64
	for _, b := range bufs {
		if !b.Device {
			total += uint64(b.Len)
		}
	}
	if total > maxStage {
		return nil, false
	}
	if int(total) > len(q.stage) {
		q.stage = make([]byte, total)
	}
	buf := q.stage[:total]
	off := uint32(0)
	for _, b := range bufs {
		if b.Device {
			continue
		}
		if q.ReadFrom(b, buf[off:off+b.Len]) != nil {
			return nil, false
		}
		off += b.Len
	}
	return buf, true
}

// WriteTo copies data into a device-writable buffer.
func (q *Queue) WriteTo(b DescBuf, data []byte) error {
	n := len(data)
	if n > int(b.Len) {
		n = int(b.Len)
	}
	q.ensure(b.Addr, n)
	if f := q.g.Write(b.Addr, data[:n]); f != nil {
		return f
	}
	return nil
}

// scatter writes data into the device-writable space of ch starting skip
// bytes into it, splitting across descriptor boundaries, and returns the
// bytes placed — fewer than len(data) when the chain is short. Like the
// per-descriptor WriteTo it is built on, a write fault costs the guest those
// bytes and nothing else.
func (q *Queue) scatter(ch Chain, skip uint32, data []byte) (written uint32) {
	for _, d := range ch.Buf {
		if !d.Device {
			continue
		}
		if skip >= d.Len {
			skip -= d.Len
			continue
		}
		if len(data) == 0 {
			break
		}
		room := DescBuf{Addr: d.Addr + uint64(skip), Len: d.Len - skip, Device: true}
		skip = 0
		nb := len(data)
		if uint64(nb) > uint64(room.Len) {
			nb = int(room.Len)
		}
		// A buffer at the very top of the address space faults from its
		// first byte; the skip must not wrap the rest of it into low RAM.
		if room.Addr >= d.Addr {
			q.WriteTo(room, data[:nb])
		}
		data = data[nb:]
		written += uint32(nb)
	}
	return written
}
