package virtio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/storage"
	"govisor/internal/vnet"
)

func newGuest(t *testing.T, pages uint64) *mem.GuestPhys {
	t.Helper()
	g := mem.NewGuestPhys(mem.NewPool(pages*2), pages*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLayoutNonOverlapping(t *testing.T) {
	desc, avail, used, end := Layout(0x1000, 128)
	if desc != 0x1000 {
		t.Fatal("desc base")
	}
	if avail < desc+128*descSize {
		t.Fatal("avail overlaps desc")
	}
	if used < avail+4+2*128 {
		t.Fatal("used overlaps avail")
	}
	if end < used+4+8*128 {
		t.Fatal("end overlaps used")
	}
	if used%8 != 0 || end%8 != 0 {
		t.Fatal("alignment")
	}
}

func TestMMIOTransportBasics(t *testing.T) {
	g := newGuest(t, 64)
	blk := NewBlk(storage.NewRaw(128))
	d := NewMMIODev("vblk", blk, g, nil)
	blk.Bind(d)
	if d.MMIORead(RegMagic, 4) != Magic {
		t.Fatal("magic")
	}
	if d.MMIORead(RegDeviceID, 4) != IDBlock {
		t.Fatal("device id")
	}
	if d.MMIORead(RegConfig, 8) != 128 {
		t.Fatal("capacity config")
	}
	// Bad queue size (not a power of two) leaves the queue unarmed.
	d.MMIOWrite(RegQueueSel, 4, 0)
	d.MMIOWrite(RegQueueNum, 4, 3)
	d.MMIOWrite(RegQueueReady, 4, 1)
	if d.Queue(0).Ready() {
		t.Fatal("queue armed with bad size")
	}
}

// blkSetup wires a virtio-blk device with a driver and returns helpers.
func blkSetup(t *testing.T, img BlockBackend) (*mem.GuestPhys, *Blk, *MMIODev, *Driver, uint64) {
	t.Helper()
	g := newGuest(t, 256)
	blk := NewBlk(img)
	var raised int
	d := NewMMIODev("vblk", blk, g, func() { raised++ })
	blk.Bind(d)
	drv, bufBase, err := NewDriver(g, d, 0, 0x10000, 64)
	if err != nil {
		t.Fatal(err)
	}
	return g, blk, d, drv, bufBase
}

// blkRequest performs a full request round trip through the queue.
func blkRequest(t *testing.T, g *mem.GuestPhys, drv *Driver, bufBase uint64, reqType uint32, sector uint64, data []byte) (status byte, out []byte) {
	t.Helper()
	hdrGPA := bufBase
	dataGPA := bufBase + 0x100
	statusGPA := bufBase + 0x8000

	var hdr [BlkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], reqType)
	binary.LittleEndian.PutUint64(hdr[8:], sector)
	if f := g.Write(hdrGPA, hdr[:]); f != nil {
		t.Fatal(f)
	}
	chain := []DescBuf{{Addr: hdrGPA, Len: BlkHeaderSize}}
	if reqType == BlkTOut {
		if f := g.Write(dataGPA, data); f != nil {
			t.Fatal(f)
		}
		chain = append(chain, DescBuf{Addr: dataGPA, Len: uint32(len(data))})
	} else if reqType == BlkTIn {
		chain = append(chain, DescBuf{Addr: dataGPA, Len: uint32(len(data)), Device: true})
	}
	chain = append(chain, DescBuf{Addr: statusGPA, Len: 1, Device: true})
	if _, err := drv.Submit(chain); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	_, _, ok := drv.PollUsed()
	if !ok {
		t.Fatal("no completion")
	}
	stv, _ := g.ReadUint(statusGPA, 1)
	out = make([]byte, len(data))
	if reqType == BlkTIn {
		g.Read(dataGPA, out)
	}
	return byte(stv), out
}

func TestBlkWriteReadRoundTrip(t *testing.T) {
	img := storage.NewRaw(128)
	g, blk, dev, drv, bufBase := blkSetup(t, img)

	data := make([]byte, 2*SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	st, _ := blkRequest(t, g, drv, bufBase, BlkTOut, 10, data)
	if st != BlkSOK {
		t.Fatalf("write status = %d", st)
	}
	st, out := blkRequest(t, g, drv, bufBase, BlkTIn, 10, make([]byte, 2*SectorSize))
	if st != BlkSOK {
		t.Fatalf("read status = %d", st)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("data mismatch")
	}
	if blk.SectorsWritten != 2 || blk.SectorsRead != 2 {
		t.Fatalf("sectors = %d/%d", blk.SectorsWritten, blk.SectorsRead)
	}
	if dev.Notifies != 2 {
		t.Fatalf("notifies = %d", dev.Notifies)
	}
	if !dev.InterruptPending() {
		t.Fatal("interrupt should be pending")
	}
	drv.AckInterrupt()
	if dev.InterruptPending() {
		t.Fatal("ack should clear")
	}
}

func TestBlkBatchedRequestsOneKick(t *testing.T) {
	img := storage.NewRaw(128)
	g, _, dev, drv, bufBase := blkSetup(t, img)

	// Queue 8 writes, then one kick.
	for i := 0; i < 8; i++ {
		hdrGPA := bufBase + uint64(i)*0x300
		dataGPA := hdrGPA + 0x20
		statusGPA := hdrGPA + 0x250
		var hdr [BlkHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], BlkTOut)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(i))
		g.Write(hdrGPA, hdr[:])
		g.Write(dataGPA, bytes.Repeat([]byte{byte(i)}, SectorSize))
		if _, err := drv.Submit([]DescBuf{
			{Addr: hdrGPA, Len: BlkHeaderSize},
			{Addr: dataGPA, Len: SectorSize},
			{Addr: statusGPA, Len: 1, Device: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	drv.Kick()
	done := 0
	for {
		if _, _, ok := drv.PollUsed(); !ok {
			break
		}
		done++
	}
	if done != 8 {
		t.Fatalf("completions = %d", done)
	}
	if dev.Notifies != 1 {
		t.Fatalf("notifies = %d (batching broken)", dev.Notifies)
	}
	// Verify the data actually landed.
	buf := make([]byte, SectorSize)
	img.ReadSector(5, buf)
	if buf[0] != 5 {
		t.Fatal("write 5 missing")
	}
}

func TestBlkUnsupportedRequest(t *testing.T) {
	g, _, _, drv, bufBase := blkSetup(t, storage.NewRaw(16))
	st, _ := blkRequest(t, g, drv, bufBase, 99, 0, nil)
	if st != BlkSUnsupp {
		t.Fatalf("status = %d", st)
	}
}

func TestBlkIOErrorOnBadSector(t *testing.T) {
	g, blk, _, drv, bufBase := blkSetup(t, storage.NewRaw(4))
	st, _ := blkRequest(t, g, drv, bufBase, BlkTOut, 1000, make([]byte, SectorSize))
	if st != BlkSIOErr {
		t.Fatalf("status = %d", st)
	}
	if blk.Errors != 1 {
		t.Fatalf("errors = %d", blk.Errors)
	}
}

type pipeLink struct {
	peer *pipeLink
	rx   func([]byte)
}

func (p *pipeLink) Send(frame []byte) {
	if p.peer != nil && p.peer.rx != nil {
		p.peer.rx(frame)
	}
}
func (p *pipeLink) SetReceiver(fn func([]byte)) { p.rx = fn }

func TestNetTxRx(t *testing.T) {
	gA := newGuest(t, 256)
	gB := newGuest(t, 256)
	la, lb := &pipeLink{}, &pipeLink{}
	la.peer, lb.peer = lb, la

	netA := NewNet(la)
	devA := NewMMIODev("vnetA", netA, gA, nil)
	netA.Bind(devA)
	netB := NewNet(lb)
	devB := NewMMIODev("vnetB", netB, gB, nil)
	netB.Bind(devB)

	drvATx, bufA, err := NewDriver(gA, devA, NetTXQueue, 0x10000, 32)
	if err != nil {
		t.Fatal(err)
	}
	drvBRx, bufB, err := NewDriver(gB, devB, NetRXQueue, 0x10000, 32)
	if err != nil {
		t.Fatal(err)
	}

	// B posts an RX buffer.
	rxGPA := bufB
	drvBRx.Submit([]DescBuf{{Addr: rxGPA, Len: 2048, Device: true}})
	drvBRx.Kick()

	// A transmits a frame (with virtio-net header prepended).
	frame := []byte("\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x01hello world")
	txGPA := bufA
	payload := make([]byte, NetHeaderSize+len(frame))
	copy(payload[NetHeaderSize:], frame)
	gA.Write(txGPA, payload)
	drvATx.Submit([]DescBuf{{Addr: txGPA, Len: uint32(len(payload))}})
	drvATx.Kick()

	if netA.TxFrames != 1 || netB.RxFrames != 1 {
		t.Fatalf("frames tx=%d rx=%d", netA.TxFrames, netB.RxFrames)
	}
	head, written, ok := drvBRx.PollUsed()
	_ = head
	if !ok {
		t.Fatal("no rx completion")
	}
	if int(written) != NetHeaderSize+len(frame) {
		t.Fatalf("written = %d", written)
	}
	got := make([]byte, len(frame))
	gB.Read(rxGPA+NetHeaderSize, got)
	if !bytes.Equal(got, frame) {
		t.Fatal("frame mismatch")
	}
}

// TestNetBacklogWhenNoRxBuffers: frames arriving with no RX buffer posted
// queue in arrival order; past netBacklogDepth the oldest is dropped for each
// newcomer; and posting buffers drains what survived, oldest first.
func TestNetBacklogWhenNoRxBuffers(t *testing.T) {
	g := newGuest(t, 64)
	link := &pipeLink{}
	n := NewNet(link)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	// Frame arrives before any RX buffer exists: backlogged, not dropped.
	n.receive([]byte("early frame padded to min len.."))
	if n.RxFrames != 0 || n.RxDropped != 0 {
		t.Fatal("should be backlogged")
	}
	const num = 16
	drv, buf, err := NewDriver(g, d, NetRXQueue, 0x8000, num)
	if err != nil {
		t.Fatal(err)
	}
	drv.Submit([]DescBuf{{Addr: buf, Len: 2048, Device: true}})
	drv.Kick() // posting buffers flushes the backlog
	if n.RxFrames != 1 {
		t.Fatalf("rx = %d", n.RxFrames)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("no rx completion")
	}

	// Overflow: 10 frames more than the backlog holds, of differing
	// lengths so a slot's recycled buffer is seen shrinking and growing.
	const extra = 10
	numbered := func(i int) []byte {
		f := make([]byte, 14+i%97)
		binary.LittleEndian.PutUint32(f[len(f)-4:], uint32(i))
		return f
	}
	for i := 0; i < netBacklogDepth+extra; i++ {
		n.receive(numbered(i))
	}
	if n.RxDropped != extra || n.RxFrames != 1 {
		t.Fatalf("dropped=%d rx=%d, want %d/1", n.RxDropped, n.RxFrames, extra)
	}
	// Drain a ring's worth at a time: frames extra.. survive, in order.
	next := extra
	for next < netBacklogDepth+extra {
		for i := 0; i < num; i++ {
			drv.Submit([]DescBuf{{Addr: buf + uint64(i)*2048, Len: 2048, Device: true}})
		}
		drv.Kick()
		for i := 0; i < num; i++ {
			_, written, ok := drv.PollUsed()
			want := numbered(next)
			if !ok || int(written) != NetHeaderSize+len(want) {
				t.Fatalf("frame %d: completion ok=%v written=%d, want %d", next, ok, written, NetHeaderSize+len(want))
			}
			got := make([]byte, len(want))
			g.Read(buf+uint64(i)*2048+NetHeaderSize, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("slot %d holds %x, want frame %d: %x", i, got, next, want)
			}
			next++
		}
	}
	if n.RxFrames != 1+netBacklogDepth || n.RxDropped != extra {
		t.Fatalf("rx=%d dropped=%d after the drain", n.RxFrames, n.RxDropped)
	}
	// Backlog empty again: the next frame takes the direct path.
	drv.Submit([]DescBuf{{Addr: buf, Len: 2048, Device: true}})
	drv.Kick()
	n.receive(numbered(7))
	if _, written, ok := drv.PollUsed(); !ok || int(written) != NetHeaderSize+len(numbered(7)) {
		t.Fatalf("direct delivery after the drain: ok=%v written=%d", ok, written)
	}
}

// TestNetRxScatterAcrossDescriptors: the device writes a zero header and the
// frame back to back into the chain's device-writable space, wherever the
// descriptor boundaries fall — mid-header included — skips descriptors that
// are not device-writable, and truncates when the chain is short. Both the
// direct path (buffer posted first) and the backlog path (frame first) go
// through the same scatter.
func TestNetRxScatterAcrossDescriptors(t *testing.T) {
	frame := make([]byte, 60)
	for i := range frame {
		frame[i] = byte(0x40 + i)
	}
	want := append(make([]byte, NetHeaderSize), frame...)
	for _, tc := range []struct {
		name  string
		lens  []uint32 // device-writable descriptor lengths
		extra bool     // a guest-readable descriptor between the first two
	}{
		{"one-buffer", []uint32{2048}, false},
		{"split-mid-header", []uint32{5, 2048}, false},
		{"split-at-header-end", []uint32{NetHeaderSize, 2048}, false},
		{"three-way", []uint32{7, 9, 100}, true},
		{"zero-length-first", []uint32{0, 3, 2048}, false},
		{"short-chain", []uint32{16, 8}, false},
		{"shorter-than-header", []uint32{4, 4}, true},
	} {
		for _, backlog := range []bool{false, true} {
			g := newGuest(t, 64)
			n := NewNet(&pipeLink{})
			d := NewMMIODev("vnet", n, g, nil)
			n.Bind(d)
			drv, buf, err := NewDriver(g, d, NetRXQueue, 0x8000, 16)
			if err != nil {
				t.Fatal(err)
			}
			var chain []DescBuf
			space := 0
			for i, l := range tc.lens {
				addr := buf + uint64(i)*0x1000
				g.Write(addr, bytes.Repeat([]byte{0xAA}, int(l)+4))
				chain = append(chain, DescBuf{Addr: addr, Len: l, Device: true})
				space += int(l)
				if i == 0 && tc.extra {
					chain = append(chain, DescBuf{Addr: buf + 0x8000, Len: 64})
				}
			}
			if backlog {
				n.receive(frame)
			}
			drv.Submit(chain)
			drv.Kick()
			if !backlog {
				n.receive(frame)
			}
			_, written, ok := drv.PollUsed()
			wantLen := min(space, len(want))
			if !ok || int(written) != wantLen {
				t.Fatalf("%s backlog=%v: ok=%v written=%d, want %d", tc.name, backlog, ok, written, wantLen)
			}
			var got []byte
			for _, b := range chain {
				if !b.Device {
					continue
				}
				part := make([]byte, b.Len+4)
				g.Read(b.Addr, part)
				got = append(got, part[:b.Len]...)
				if !bytes.Equal(part[b.Len:], []byte{0xAA, 0xAA, 0xAA, 0xAA}) && len(got) <= wantLen {
					t.Fatalf("%s backlog=%v: wrote past a %d-byte descriptor", tc.name, backlog, b.Len)
				}
			}
			if !bytes.Equal(got[:wantLen], want[:wantLen]) {
				t.Fatalf("%s backlog=%v: chain holds\n%x\nwant\n%x", tc.name, backlog, got[:wantLen], want[:wantLen])
			}
			if rest := got[wantLen:]; !bytes.Equal(rest, bytes.Repeat([]byte{0xAA}, len(rest))) {
				t.Fatalf("%s backlog=%v: bytes past the frame were written: %x", tc.name, backlog, rest)
			}
		}
	}
}

// TestNetFramePathAllocatesNothing: in steady state a frame crosses the host
// — TX chain, TX scratch, the sending port's epoch arena, the barrier flush,
// the receiver's RX descriptors — without a heap allocation, both when the
// receiver has a buffer posted (ring-direct) and when it does not (the
// backlog ring, drained when buffers arrive).
func TestNetFramePathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, backlog := range []bool{false, true} {
		gA, gB := newGuest(t, 64), newGuest(t, 64)
		sw := vnet.NewSwitch()
		pa, pb := sw.NewPort(), sw.NewPort()
		macA, macB := vnet.MACForVM(1), vnet.MACForVM(2)
		sw.Learn(macB, pb)
		sw.SetDeferred(true)
		netA, netB := NewNet(pa), NewNet(pb)
		devA := NewMMIODev("vnetA", netA, gA, nil)
		netA.Bind(devA)
		devB := NewMMIODev("vnetB", netB, gB, nil)
		netB.Bind(devB)
		tx, bufA, err := NewDriver(gA, devA, NetTXQueue, 0x8000, 16)
		if err != nil {
			t.Fatal(err)
		}
		rx, bufB, err := NewDriver(gB, devB, NetRXQueue, 0x8000, 16)
		if err != nil {
			t.Fatal(err)
		}
		wire := vnet.BuildFrame(macB, macA, bytes.Repeat([]byte("payload!"), 30))
		gA.Write(bufA+NetHeaderSize, wire)
		txChain := []DescBuf{{Addr: bufA, Len: NetHeaderSize}, {Addr: bufA + NetHeaderSize, Len: uint32(len(wire))}}
		rxChain := []DescBuf{{Addr: bufB, Len: 2048, Device: true}}
		const burst = 8
		post := func() {
			for i := 0; i < burst; i++ {
				rx.Submit(rxChain)
			}
			rx.Kick()
		}
		round := func() {
			if !backlog {
				post()
			}
			for i := 0; i < burst; i++ {
				tx.Submit(txChain)
			}
			tx.Kick()
			sw.Flush()
			if backlog {
				post()
			}
			for i := 0; i < burst; i++ {
				if _, _, ok := tx.PollUsed(); !ok {
					t.Fatal("tx chain never completed")
				}
				if _, written, ok := rx.PollUsed(); !ok || int(written) != NetHeaderSize+len(wire) {
					t.Fatalf("rx completion ok=%v written=%d", ok, written)
				}
			}
			tx.AckInterrupt()
			rx.AckInterrupt()
		}
		round() // AllocsPerRun's own warm-up run covers each port's other queue
		if a := testing.AllocsPerRun(50, round); a != 0 {
			t.Errorf("backlog=%v: %v allocations per %d-frame round, want 0", backlog, a, burst)
		}
		got := make([]byte, len(wire))
		gB.Read(bufB+NetHeaderSize, got)
		if !bytes.Equal(got, wire) || netB.RxDropped != 0 || netA.TxDropped != 0 {
			t.Errorf("backlog=%v: frame corrupted or dropped (rxdrop=%d txdrop=%d)", backlog, netB.RxDropped, netA.TxDropped)
		}
	}
}

// TestRequestPathAllocatesNothing pins the other three backends to the same
// budget as the net frame path: once warm, a blk write request, a console TX
// chain and a balloon inflate allocate nothing on the host.
func TestRequestPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name string
		qi   int
		// setup wires the backend to g and lays a request out in guest
		// memory at buf, returning its transport and the chain.
		setup func(g *mem.GuestPhys, buf uint64) (*MMIODev, []DescBuf)
	}{
		{"blk write", 0, func(g *mem.GuestPhys, buf uint64) (*MMIODev, []DescBuf) {
			b := NewBlk(storage.NewRaw(8))
			d := NewMMIODev("vblk", b, g, nil)
			b.Bind(d)
			var hdr [BlkHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:], BlkTOut)
			binary.LittleEndian.PutUint64(hdr[8:], 1)
			g.Write(buf, hdr[:])
			return d, []DescBuf{{Addr: buf, Len: BlkHeaderSize}, {Addr: buf + 0x200, Len: SectorSize}, {Addr: buf + 0x100, Len: 1, Device: true}}
		}},
		{"console tx", ConsoleTXQueue, func(g *mem.GuestPhys, buf uint64) (*MMIODev, []DescBuf) {
			c := NewConsole()
			c.out.Grow(64 << 10) // the output itself is kept, not garbage
			d := NewMMIODev("vcon", c, g, nil)
			c.Bind(d)
			g.Write(buf, []byte("hello from guest"))
			return d, []DescBuf{{Addr: buf, Len: 5}, {Addr: buf + 5, Len: 11}}
		}},
		{"balloon inflate", BalloonInflateQueue, func(g *mem.GuestPhys, buf uint64) (*MMIODev, []DescBuf) {
			b := NewBalloon(parityBalloonOps{})
			d := NewMMIODev("vballoon", b, g, nil)
			b.Bind(d)
			g.WriteUintPriv(buf, 8, 30)
			g.WriteUintPriv(buf+8, 8, 32)
			return d, []DescBuf{{Addr: buf, Len: 8}, {Addr: buf + 8, Len: 8}}
		}},
	} {
		g := newGuest(t, 64)
		d, chain := tc.setup(g, 0xA000)
		drv, _, err := NewDriver(g, d, tc.qi, 0x8000, 16)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			if _, err := drv.Submit(chain); err != nil {
				t.Fatal(err)
			}
			drv.Kick()
			if _, _, ok := drv.PollUsed(); !ok {
				t.Fatalf("%s: request never completed", tc.name)
			}
			drv.AckInterrupt()
		}
		if a := testing.AllocsPerRun(50, round); a != 0 {
			t.Errorf("%s: %v allocations per request, want 0", tc.name, a)
		}
	}
}

func TestConsoleEcho(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)

	drvTx, bufTx, err := NewDriver(g, d, ConsoleTXQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(bufTx, []byte("hello from guest"))
	drvTx.Submit([]DescBuf{{Addr: bufTx, Len: 16}})
	drvTx.Kick()
	if con.Output() != "hello from guest" {
		t.Fatalf("output = %q", con.Output())
	}

	drvRx, bufRx, err := NewDriver(g, d, ConsoleRXQueue, 0xC000, 16)
	if err != nil {
		t.Fatal(err)
	}
	drvRx.Submit([]DescBuf{{Addr: bufRx, Len: 64, Device: true}})
	drvRx.Kick()
	con.Feed([]byte("hi"))
	_, written, ok := drvRx.PollUsed()
	if !ok || written != 2 {
		t.Fatalf("rx written = %d ok=%v", written, ok)
	}
	got := make([]byte, 2)
	g.Read(bufRx, got)
	if string(got) != "hi" {
		t.Fatalf("rx = %q", got)
	}
}

type fakeBalloonOps struct{ reclaimed, returned []uint64 }

func (f *fakeBalloonOps) ReclaimPage(gfn uint64) bool {
	f.reclaimed = append(f.reclaimed, gfn)
	return true
}
func (f *fakeBalloonOps) ReturnPage(gfn uint64) { f.returned = append(f.returned, gfn) }

// parityBalloonOps reclaims even gfns and refuses odd ones, keeping no
// record, so it neither allocates nor grows with the traffic it sees.
type parityBalloonOps struct{}

func (parityBalloonOps) ReclaimPage(gfn uint64) bool { return gfn%2 == 0 }
func (parityBalloonOps) ReturnPage(uint64)           {}

func TestBalloonInflateDeflate(t *testing.T) {
	g := newGuest(t, 64)
	ops := &fakeBalloonOps{}
	bal := NewBalloon(ops)
	d := NewMMIODev("vballoon", bal, g, nil)
	bal.Bind(d)

	bal.SetTarget(2)
	if d.MMIORead(RegConfig, 8) != 2 {
		t.Fatal("target config")
	}

	drvInf, buf, err := NewDriver(g, d, BalloonInflateQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Lease gfns 30 and 31.
	g.WriteUintPriv(buf, 8, 30)
	g.WriteUintPriv(buf+8, 8, 31)
	drvInf.Submit([]DescBuf{{Addr: buf, Len: 16}})
	drvInf.Kick()
	if len(ops.reclaimed) != 2 || ops.reclaimed[0] != 30 {
		t.Fatalf("reclaimed = %v", ops.reclaimed)
	}
	if bal.Actual() != 2 {
		t.Fatalf("actual = %d", bal.Actual())
	}

	drvDef, buf2, err := NewDriver(g, d, BalloonDeflateQueue, 0xC000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteUintPriv(buf2, 8, 30)
	drvDef.Submit([]DescBuf{{Addr: buf2, Len: 8}})
	drvDef.Kick()
	if len(ops.returned) != 1 || ops.returned[0] != 30 {
		t.Fatalf("returned = %v", ops.returned)
	}
	if bal.Actual() != 1 {
		t.Fatalf("actual = %d", bal.Actual())
	}
}

func TestQueueMalformedChainCycle(t *testing.T) {
	g := newGuest(t, 64)
	var q Queue
	if err := q.Configure(g, 4, 0x1000, 0x1100, 0x1200); err != nil {
		t.Fatal(err)
	}
	// Descriptor 0 chains to itself.
	g.WriteUintPriv(0x1000+8, 4, 16)                // len
	g.WriteUintPriv(0x1000+12, 2, uint64(DescNext)) // flags
	g.WriteUintPriv(0x1000+14, 2, 0)                // next = self
	// avail ring: one entry, head 0.
	g.WriteUintPriv(0x1100+4, 2, 0)
	g.WriteUintPriv(0x1100+2, 2, 1)
	if _, ok := q.Pop(); ok {
		t.Fatal("cyclic chain must be rejected")
	}
	// The malformed chain completes instead of leaking: its head lands in
	// the used ring with written=0 and the stat records the event.
	if q.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", q.Malformed)
	}
	if q.UsedIdx() != 1 {
		t.Fatalf("used idx = %d, want 1 (cyclic chain must still complete)", q.UsedIdx())
	}
}
