// Malformed-ring robustness suite: the device side of every queue must
// survive a corrupt or malicious guest — scribbled producer indices,
// descriptor loops, faulting buffer addresses, zero-length and
// wrongly-directed descriptors — without panicking, without trusting guest
// memory for device-owned state, and without leaking descriptors.
package virtio

import (
	"encoding/binary"
	"runtime"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/storage"
)

// qSetup arms a bare queue at a fixed layout and returns it with its rings'
// addresses.
func qSetup(t *testing.T, g *mem.GuestPhys, num uint16) (*Queue, uint64, uint64, uint64) {
	t.Helper()
	desc, avail, used, _ := Layout(0x1000, num)
	q := &Queue{}
	if err := q.Configure(g, num, desc, avail, used); err != nil {
		t.Fatal(err)
	}
	return q, desc, avail, used
}

// postChain publishes head on the avail ring (slot = current index).
func postChain(g *mem.GuestPhys, avail uint64, idx *uint16, head uint16, num uint16) {
	g.WriteUintPriv(avail+4+2*uint64(*idx%num), 2, uint64(head))
	*idx++
	g.WriteUintPriv(avail+2, 2, uint64(*idx))
}

// writeDesc writes one descriptor table entry.
func writeDesc(g *mem.GuestPhys, desc uint64, i uint16, addr uint64, length uint32, flags, next uint16) {
	d := desc + uint64(i)*descSize
	g.WriteUintPriv(d, 8, addr)
	g.WriteUintPriv(d+8, 4, uint64(length))
	g.WriteUintPriv(d+12, 2, uint64(flags))
	g.WriteUintPriv(d+14, 2, uint64(next))
}

// TestUsedIdxCorruptionIgnored is the regression test for the Push read-back
// bug: the used-ring producer index is device-owned, so a guest scribbling
// used.idx mid-stream must not redirect later completions. Before the fix
// the device re-read the index on every Push, so the corruption below sent
// the second completion to slot 0xEE%num and published idx 0xEF.
func TestUsedIdxCorruptionIgnored(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, used := qSetup(t, g, 8)
	var availIdx uint16
	writeDesc(g, desc, 0, 0x8000, 16, 0, 0)
	writeDesc(g, desc, 1, 0x8100, 16, 0, 0)
	postChain(g, avail, &availIdx, 0, 8)

	if ch, ok := q.Pop(); !ok {
		t.Fatal("pop 1")
	} else {
		q.Push(ch.Head, 0)
	}
	// Guest corrupts the producer index between completions.
	g.WriteUintPriv(used+2, 2, 0xEE)

	postChain(g, avail, &availIdx, 1, 8)
	if ch, ok := q.Pop(); !ok {
		t.Fatal("pop 2")
	} else {
		q.Push(ch.Head, 0)
	}
	if got := q.UsedIdx(); got != 2 {
		t.Fatalf("used idx = %d, want 2 (device must own the index)", got)
	}
	// The second completion sits in slot 1, where an uncorrupted stream
	// would put it.
	h, _ := g.ReadUint(used+4+8*1, 4)
	if uint16(h) != 1 {
		t.Fatalf("slot 1 head = %d, want 1", h)
	}
}

// TestUsedIdxFaultingRingNoSlotStomp: if the used ring sits on faulting
// memory the index read-back used to return 0 forever, stomping slot 0 with
// every completion. The shadow index keeps completions sequenced even though
// the writes themselves fault harmlessly.
func TestUsedIdxFaultingRingNoSlotStomp(t *testing.T) {
	g := newGuest(t, 64)
	q := &Queue{}
	desc, avail, _, _ := Layout(0x1000, 8)
	// Used ring beyond RAM: every device write to it faults (and is
	// discarded); the shadow must still advance.
	if err := q.Configure(g, 8, desc, avail, g.Size()+0x1000); err != nil {
		t.Fatal(err)
	}
	var availIdx uint16
	writeDesc(g, desc, 0, 0x8000, 16, 0, 0)
	writeDesc(g, desc, 1, 0x8100, 16, 0, 0)
	postChain(g, avail, &availIdx, 0, 8)
	postChain(g, avail, &availIdx, 1, 8)
	for i := 0; i < 2; i++ {
		ch, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d", i)
		}
		q.Push(ch.Head, 0)
	}
	if q.usedIdx != 2 {
		t.Fatalf("shadow used idx = %d, want 2", q.usedIdx)
	}
}

// TestTxFaultDropsFrame is the regression test for the processTX bug: a TX
// descriptor aimed beyond RAM used to transmit the zero-filled remainder of
// the frame. The frame must be dropped (counted in TxDropped), nothing may
// reach the link, and the chain still completes so the ring stays live.
func TestTxFaultDropsFrame(t *testing.T) {
	g := newGuest(t, 64)
	var sent [][]byte
	link := &pipeLink{}
	peer := &pipeLink{}
	link.peer, peer.peer = peer, link
	peer.rx = func(f []byte) { sent = append(sent, f) }

	n := NewNet(link)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, buf, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Faulting frame: descriptor points past the end of RAM.
	if _, err := drv.Submit([]DescBuf{{Addr: g.Size() + 0x1000, Len: NetHeaderSize + 64}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if len(sent) != 0 {
		t.Fatalf("faulting frame reached the link: %d", len(sent))
	}
	if n.TxDropped != 1 || n.TxFrames != 0 {
		t.Fatalf("dropped=%d tx=%d, want 1/0", n.TxDropped, n.TxFrames)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("dropped frame must still complete its chain")
	}
	// The ring is live: a good frame right after goes through.
	payload := make([]byte, NetHeaderSize+32)
	for i := range payload[NetHeaderSize:] {
		payload[NetHeaderSize+i] = byte(i)
	}
	g.Write(buf, payload)
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: uint32(len(payload))}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxFrames != 1 || len(sent) != 1 {
		t.Fatalf("follow-up frame lost: tx=%d sent=%d", n.TxFrames, len(sent))
	}
}

// TestTxOversizedChainDropped: a chain advertising a multi-gigabyte total
// must not size a host allocation; it drops and completes.
func TestTxOversizedChainDropped(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, _, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: 0x8000, Len: 0xF000_0000}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxDropped != 1 {
		t.Fatalf("TxDropped = %d", n.TxDropped)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("oversized chain must still complete")
	}
}

// TestMalformedChainsDontWedgeRing is the regression test for the Pop leak:
// malformed chains used to consume the available entry without ever pushing
// to the used ring, so a guest emitting them leaked descriptors until the
// ring wedged. Far more chains than the ring holds must flow through — each
// completing with written=0 — and a well-formed chain afterwards still works.
func TestMalformedChainsDontWedgeRing(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, _ := qSetup(t, g, 4)
	var availIdx uint16
	// Descriptor 2 chains to itself forever.
	writeDesc(g, desc, 2, 0x8000, 16, DescNext, 2)
	// 3 ring-sizes' worth of cyclic chains: with the leak, the 5th pop
	// would already have wedged (4 in flight, none completed).
	for i := 0; i < 12; i++ {
		postChain(g, avail, &availIdx, 2, 4)
		if _, ok := q.Pop(); ok {
			t.Fatalf("chain %d: cyclic chain popped as well-formed", i)
		}
	}
	if q.Malformed != 12 {
		t.Fatalf("Malformed = %d, want 12", q.Malformed)
	}
	if q.UsedIdx() != 12 {
		t.Fatalf("used idx = %d, want 12 (ring wedged)", q.UsedIdx())
	}
	// Ring still live for a well-formed chain.
	writeDesc(g, desc, 0, 0x9000, 32, 0, 0)
	postChain(g, avail, &availIdx, 0, 4)
	ch, ok := q.Pop()
	if !ok || ch.Head != 0 || len(ch.Buf) != 1 {
		t.Fatalf("well-formed chain after malformed storm: ok=%v head=%d", ok, ch.Head)
	}
	if q.Chains != 1 {
		t.Fatalf("Chains = %d, want 1", q.Chains)
	}
}

// TestChainLengthOffByOne: a chain may use each of the ring's num
// descriptors exactly once. Before the fix the walk admitted num+1 hops, so
// a full-length chain was indistinguishable from a cycle's first lap.
func TestChainLengthOffByOne(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, _ := qSetup(t, g, 4)
	var availIdx uint16
	// A well-formed maximal chain: 0→1→2→3.
	for i := uint16(0); i < 4; i++ {
		flags := uint16(0)
		if i < 3 {
			flags = DescNext
		}
		writeDesc(g, desc, i, 0x8000+uint64(i)*0x100, 16, flags, i+1)
	}
	postChain(g, avail, &availIdx, 0, 4)
	ch, ok := q.Pop()
	if !ok || len(ch.Buf) != 4 {
		t.Fatalf("maximal chain rejected: ok=%v len=%d", ok, len(ch.Buf))
	}
	// Now loop descriptor 3 back to 0: 5 hops means a revisit, and the old
	// `hops <= num` walk would have accepted num+1 buffers.
	writeDesc(g, desc, 3, 0x8300, 16, DescNext, 0)
	postChain(g, avail, &availIdx, 0, 4)
	if _, ok := q.Pop(); ok {
		t.Fatal("num+1-hop chain must be malformed")
	}
	if q.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", q.Malformed)
	}
}

// TestCorruptAvailIdxStorm: the guest publishes a wildly wrong producer
// index. The device must chew through the phantom window — every phantom
// head resolves as a zero-descriptor chain and completes — without panic and
// without the used ring falling out of step with consumption.
func TestCorruptAvailIdxStorm(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	if _, err := d.SetupQueue(NetTXQueue, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	q := d.Queue(NetTXQueue)
	// avail.idx jumps to 5000 with nothing actually posted.
	avail := q.avail
	g.WriteUintPriv(avail+2, 2, 5000)
	d.MMIOWrite(RegNotify, 4, NetTXQueue)
	if q.lastAvail != 5000 {
		t.Fatalf("consumed %d chains, want 5000", q.lastAvail)
	}
	if q.usedIdx != 5000 {
		t.Fatalf("used idx = %d, want 5000 (every consumed chain completes)", q.usedIdx)
	}
	if !d.InterruptPending() {
		t.Fatal("completions must raise the interrupt even when all chains are phantom")
	}
}

// TestZeroLengthDescriptors: zero-length descriptors are legal (if useless);
// they must complete cleanly in both directions.
func TestZeroLengthDescriptors(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, _, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: 0x8000, Len: 0}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("zero-length chain must complete")
	}
	if n.TxFrames != 0 || n.TxDropped != 0 {
		t.Fatalf("zero-length chain counted as traffic: tx=%d dropped=%d", n.TxFrames, n.TxDropped)
	}
}

// TestTxDeviceWritableOnlyChain: a TX chain made solely of device-writable
// descriptors carries no readable bytes; it completes without transmitting.
func TestTxDeviceWritableOnlyChain(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, buf, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: 2048, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxFrames != 0 {
		t.Fatalf("device-writable-only chain transmitted: %d", n.TxFrames)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("chain must complete")
	}
}

// TestQueueEnsurePageArithmetic: ensure must use the machine's page
// constants. A DMA buffer spanning pages of an initially unpopulated space
// demand-populates every page it touches (lazy guest memory behaves like
// pinned DMA memory).
func TestQueueEnsurePageArithmetic(t *testing.T) {
	pool := mem.NewPool(64)
	g := mem.NewGuestPhys(pool, 16<<isa.PageShift) // nothing populated
	q, desc, avail, _ := qSetup(t, g, 8)
	_ = desc
	_ = avail
	// A device write spanning three pages, unaligned start.
	start := uint64(2<<isa.PageShift) - 100
	data := make([]byte, 2*isa.PageSize+200)
	for i := range data {
		data[i] = byte(i)
	}
	if err := q.WriteTo(DescBuf{Addr: start, Len: uint32(len(data)), Device: true}, data); err != nil {
		t.Fatal(err)
	}
	for gfn := uint64(1); gfn <= 4; gfn++ {
		if g.Frame(gfn) == mem.NoFrame {
			t.Fatalf("page %d not populated by DMA ensure", gfn)
		}
	}
	got := make([]byte, len(data))
	if f := g.Read(start, got); f != nil {
		t.Fatal(f)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// hostAllocCeiling bounds what one hostile chain may make the host allocate.
// It is loose on purpose — a sparse image's sectors, a console buffer — next
// to the 4 GiB a guest-written uint32 length can ask for.
const hostAllocCeiling = 4 << 20

// allocatedBy runs fn and returns the bytes it made the Go heap allocate.
func allocatedBy(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestBlkGuestSizedDescriptor: a data descriptor's length is a guest-written
// uint32 and must never size a host buffer. Chains advertising 4 GiB − 1 (not
// a sector multiple) and 4 GiB − 512 (a sector multiple: the transfer starts
// and runs until the image or guest RAM ends) complete with an I/O error, in
// both directions, under the allocation ceiling — and the queue stays live.
func TestBlkGuestSizedDescriptor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reqType uint32
		length  uint32
		sectors uint64 // sectors transferred before the failure
	}{
		{"in-unaligned", BlkTIn, 0xFFFF_FFFF, 0},
		{"out-unaligned", BlkTOut, 0xFFFF_FFFF, 0},
		{"in-aligned", BlkTIn, 0xFFFF_FE00, 8},
		{"out-aligned", BlkTOut, 0xFFFF_FE00, 8},
	} {
		g, blk, _, drv, bufBase := blkSetup(t, storage.NewRaw(8))
		hdrGPA, dataGPA, statusGPA := bufBase, bufBase+0x1000, bufBase+0x800
		var hdr [BlkHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], tc.reqType)
		g.Write(hdrGPA, hdr[:])
		g.WriteUintPriv(statusGPA, 1, 0xEE)
		chain := []DescBuf{
			{Addr: hdrGPA, Len: BlkHeaderSize},
			{Addr: dataGPA, Len: tc.length, Device: tc.reqType == BlkTIn},
			{Addr: statusGPA, Len: 1, Device: true},
		}
		got := allocatedBy(func() {
			if _, err := drv.Submit(chain); err != nil {
				t.Fatal(err)
			}
			drv.Kick()
		})
		if got > hostAllocCeiling {
			t.Errorf("%s: the chain made the host allocate %d bytes", tc.name, got)
		}
		_, written, ok := drv.PollUsed()
		if !ok || written != 1 {
			t.Fatalf("%s: completion ok=%v written=%d, want the status byte alone", tc.name, ok, written)
		}
		if st, _ := g.ReadUint(statusGPA, 1); st != BlkSIOErr {
			t.Errorf("%s: status = %d, want BlkSIOErr", tc.name, st)
		}
		if blk.Errors != 1 || blk.SectorsRead+blk.SectorsWritten != tc.sectors {
			t.Errorf("%s: errors=%d sectors=%d, want 1/%d", tc.name, blk.Errors, blk.SectorsRead+blk.SectorsWritten, tc.sectors)
		}
		if st, _ := blkRequest(t, g, drv, bufBase, BlkTOut, 1, make([]byte, SectorSize)); st != BlkSOK {
			t.Errorf("%s: follow-up request status = %d", tc.name, st)
		}
	}
}

// TestConsoleGuestSizedDescriptor: a TX descriptor longer than
// maxStage is refused unread and counted, the chain completes, and the
// descriptors around it still reach the output.
func TestConsoleGuestSizedDescriptor(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)
	drv, buf, err := NewDriver(g, d, ConsoleTXQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(buf, []byte("before|after"))
	chain := []DescBuf{{Addr: buf, Len: 7}, {Addr: buf, Len: 0xFFFF_FFFF}, {Addr: buf + 7, Len: 5}}
	got := allocatedBy(func() {
		if _, err := drv.Submit(chain); err != nil {
			t.Fatal(err)
		}
		drv.Kick()
	})
	if got > hostAllocCeiling {
		t.Errorf("the chain made the host allocate %d bytes", got)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("oversized descriptor must still complete its chain")
	}
	if con.Output() != "before|after" || con.TxDropped != 1 || con.TxBytes != 12 {
		t.Fatalf("output=%q dropped=%d bytes=%d", con.Output(), con.TxDropped, con.TxBytes)
	}
	// The bound itself is not refused.
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: maxStage}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if con.TxDropped != 1 || con.TxBytes != 12+maxStage {
		t.Fatalf("a %d-byte descriptor: dropped=%d bytes=%d", maxStage, con.TxDropped, con.TxBytes)
	}
}

// TestBalloonGuestSizedDescriptor: a page-array descriptor longer than
// maxStage is refused unread and counted — no page is reclaimed on its
// say-so — while the chain completes and its well-formed neighbour is served.
func TestBalloonGuestSizedDescriptor(t *testing.T) {
	g := newGuest(t, 64)
	ops := &fakeBalloonOps{}
	bal := NewBalloon(ops)
	d := NewMMIODev("vballoon", bal, g, nil)
	bal.Bind(d)
	drv, buf, err := NewDriver(g, d, BalloonInflateQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteUintPriv(buf, 8, 30)
	chain := []DescBuf{{Addr: buf, Len: 0xFFFF_FFF8}, {Addr: buf, Len: 8}}
	got := allocatedBy(func() {
		if _, err := drv.Submit(chain); err != nil {
			t.Fatal(err)
		}
		drv.Kick()
	})
	if got > hostAllocCeiling {
		t.Errorf("the chain made the host allocate %d bytes", got)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("oversized descriptor must still complete its chain")
	}
	if bal.Dropped != 1 || bal.Actual() != 1 || len(ops.reclaimed) != 1 || ops.reclaimed[0] != 30 {
		t.Fatalf("dropped=%d actual=%d reclaimed=%v", bal.Dropped, bal.Actual(), ops.reclaimed)
	}
}

// TestConsoleTxFaultDropped: a TX descriptor aimed outside guest RAM is lost
// to a DMA fault. It is counted in TxDropped and adds nothing to the output;
// it used to reach Output and TxBytes as the unread buffer's zeros.
func TestConsoleTxFaultDropped(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)
	drv, buf, err := NewDriver(g, d, ConsoleTXQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(buf, []byte("ok"))
	if _, err := drv.Submit([]DescBuf{{Addr: g.Size() + 0x1000, Len: 16}, {Addr: buf, Len: 2}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("the chain must complete")
	}
	if con.Output() != "ok" || con.TxDropped != 1 || con.TxBytes != 2 {
		t.Fatalf("output=%q dropped=%d bytes=%d, want \"ok\"/1/2", con.Output(), con.TxDropped, con.TxBytes)
	}
}

// TestConsoleRxFaultKeepsInput: input offered to an RX buffer outside guest
// RAM did not land, so it is neither consumed nor counted: the faulting
// chain completes empty and the next good buffer receives the input whole.
// It used to be dropped while written and RxBytes reported it delivered.
func TestConsoleRxFaultKeepsInput(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)
	drv, buf, err := NewDriver(g, d, ConsoleRXQueue, 0xC000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: g.Size() + 0x1000, Len: 64, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	con.Feed([]byte("hello"))
	if _, written, ok := drv.PollUsed(); !ok || written != 0 || con.RxBytes != 0 {
		t.Fatalf("faulting buffer: ok=%v written=%d rxbytes=%d, want true/0/0", ok, written, con.RxBytes)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: 64, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, written, ok := drv.PollUsed(); !ok || written != 5 || con.RxBytes != 5 {
		t.Fatalf("good buffer: ok=%v written=%d rxbytes=%d, want true/5/5", ok, written, con.RxBytes)
	}
	got := make([]byte, 5)
	g.Read(buf, got)
	if string(got) != "hello" {
		t.Fatalf("rx = %q", got)
	}
}

// TestBlkStatusFaultNotCounted: a status descriptor outside guest RAM cannot
// take the status byte, so the completion must not count it — for a served
// request and for one failed on its header alike. Both used to report 1.
func TestBlkStatusFaultNotCounted(t *testing.T) {
	g, blk, _, drv, bufBase := blkSetup(t, storage.NewRaw(8))
	var hdr [BlkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], BlkTFlush)
	g.Write(bufBase, hdr[:])
	status := DescBuf{Addr: g.Size() + 0x1000, Len: 1, Device: true}
	for _, tc := range []struct {
		name  string
		chain []DescBuf
	}{
		{"flush", []DescBuf{{Addr: bufBase, Len: BlkHeaderSize}, status}},
		{"device-writable header", []DescBuf{{Addr: bufBase, Len: BlkHeaderSize, Device: true}, status}},
	} {
		if _, err := drv.Submit(tc.chain); err != nil {
			t.Fatal(err)
		}
		drv.Kick()
		if _, written, ok := drv.PollUsed(); !ok || written != 0 {
			t.Errorf("%s: completion ok=%v written=%d, want true/0", tc.name, ok, written)
		}
	}
	if blk.Requests != 2 {
		t.Fatalf("Requests = %d, want 2", blk.Requests)
	}
}

// TestMalformedOnlyDeliveryInterrupts: a host-side delivery that completes
// nothing but a malformed RX chain still advances the used ring, and so must
// interrupt the guest, or a driver sleeping on that ring never wakes. Pop
// completes a cyclic chain itself; the delivery used to raise only when it
// filled a good one.
func TestMalformedOnlyDeliveryInterrupts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(g *mem.GuestPhys) (*MMIODev, func())
	}{
		{"net receive", func(g *mem.GuestPhys) (*MMIODev, func()) {
			n := NewNet(nil)
			d := NewMMIODev("vnet", n, g, nil)
			n.Bind(d)
			return d, func() { n.receive(make([]byte, 64)) }
		}},
		{"console feed", func(g *mem.GuestPhys) (*MMIODev, func()) {
			c := NewConsole()
			d := NewMMIODev("vcon", c, g, nil)
			c.Bind(d)
			return d, func() { c.Feed([]byte("hi")) }
		}},
	} {
		g := newGuest(t, 64)
		d, deliver := tc.setup(g)
		// Both backends receive on queue 0.
		if _, err := d.SetupQueue(0, 0x1000, 4); err != nil {
			t.Fatal(err)
		}
		q := d.Queue(0)
		var availIdx uint16
		writeDesc(g, q.desc, 0, 0x8000, 16, DescNext, 0)
		postChain(g, q.avail, &availIdx, 0, 4)
		deliver()
		if q.UsedIdx() != 1 || q.Malformed != 1 {
			t.Errorf("%s: used idx = %d, malformed = %d, want 1/1", tc.name, q.UsedIdx(), q.Malformed)
		}
		if !d.InterruptPending() {
			t.Errorf("%s: the used ring advanced without an interrupt", tc.name)
		}
	}
}
