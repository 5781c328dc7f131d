package vnet

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func TestMACForVMStable(t *testing.T) {
	if MACForVM(1) != MACForVM(1) {
		t.Fatal("MAC not stable")
	}
	if MACForVM(1) == MACForVM(2) {
		t.Fatal("MACs collide")
	}
	if MACForVM(7).String() == "" {
		t.Fatal("formatting")
	}
}

func TestFloodThenLearnedForward(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	var gotB, gotC [][]byte
	// A receiver owns the frame only for the call: keep a copy.
	b.SetReceiver(func(f []byte) { gotB = append(gotB, bytes.Clone(f)) })
	c.SetReceiver(func(f []byte) { gotC = append(gotC, bytes.Clone(f)) })

	macA, macB := MACForVM(1), MACForVM(2)

	// First frame A→B: unknown destination, flooded to B and C.
	a.Send(BuildFrame(macB, macA, []byte("one")))
	if len(gotB) != 1 || len(gotC) != 1 {
		t.Fatalf("flood: B=%d C=%d", len(gotB), len(gotC))
	}
	// B replies: switch learns B's port; A is already learned.
	b.Send(BuildFrame(macA, macB, []byte("two")))
	// Second A→B: unicast to B only.
	a.Send(BuildFrame(macB, macA, []byte("three")))
	if len(gotB) != 2 {
		t.Fatalf("B frames = %d", len(gotB))
	}
	if len(gotC) != 1 {
		t.Fatalf("C should not see unicast: %d", len(gotC))
	}
	if sw.Forwarded != 2 || sw.Flooded != 1 {
		t.Fatalf("stats fwd=%d flood=%d", sw.Forwarded, sw.Flooded)
	}
	if !bytes.Equal(gotB[1][12:], []byte("three")) {
		t.Fatal("payload")
	}
}

func TestBroadcastFloods(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	nB, nC := 0, 0
	b.SetReceiver(func([]byte) { nB++ })
	c.SetReceiver(func([]byte) { nC++ })
	a.Send(BuildFrame(Broadcast, MACForVM(1), []byte("hello")))
	if nB != 1 || nC != 1 {
		t.Fatalf("broadcast: B=%d C=%d", nB, nC)
	}
}

func TestRuntFrameDropped(t *testing.T) {
	sw := NewSwitch()
	a := sw.NewPort()
	_ = sw.NewPort()
	a.Send([]byte{1, 2, 3})
	if sw.Dropped != 1 {
		t.Fatalf("dropped = %d", sw.Dropped)
	}
	// Deferred, an empty frame is queued like any other and dropped at
	// the barrier.
	sw.SetDeferred(true)
	a.Send(nil)
	a.Send([]byte{1, 2, 3})
	if n := sw.Flush(); n != 2 || sw.Dropped != 3 {
		t.Fatalf("deferred: flushed %d, dropped = %d", n, sw.Dropped)
	}
}

func TestNoSelfDelivery(t *testing.T) {
	sw := NewSwitch()
	a := sw.NewPort()
	self := 0
	a.SetReceiver(func([]byte) { self++ })
	a.Send(BuildFrame(Broadcast, MACForVM(1), nil))
	if self != 0 {
		t.Fatal("sender must not receive its own frame")
	}
}

func TestPortCounters(t *testing.T) {
	sw := NewSwitch()
	a, b := sw.NewPort(), sw.NewPort()
	b.SetReceiver(func([]byte) {})
	a.Send(BuildFrame(Broadcast, MACForVM(1), nil))
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatalf("counters tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
	if sw.Ports() != 2 {
		t.Fatal("port count")
	}
}

// TestHairpinUnicastDropped: a unicast frame whose destination is learned on
// the sending port must be filtered, not flooded — before the fix the switch
// treated "known but on the sender" as unknown and duplicated the frame to
// every other segment.
func TestHairpinUnicastDropped(t *testing.T) {
	sw := NewSwitch()
	a, b := sw.NewPort(), sw.NewPort()
	nB := 0
	b.SetReceiver(func([]byte) { nB++ })
	macA, macA2 := MACForVM(1), MACForVM(10)

	// Two stations behind port A teach the switch both MACs.
	a.Send(BuildFrame(Broadcast, macA, nil))
	a.Send(BuildFrame(Broadcast, macA2, nil))
	if nB != 2 {
		t.Fatalf("broadcast floods = %d, want 2", nB)
	}
	// A-side traffic between them hairpins: same ingress port as the
	// learned destination. The switch must drop, and B must see nothing.
	a.Send(BuildFrame(macA2, macA, []byte("local")))
	a.Send(BuildFrame(macA, macA2, []byte("reply")))
	if nB != 2 {
		t.Fatalf("hairpin frames leaked to B: %d", nB)
	}
	if sw.Dropped != 2 || sw.Forwarded != 0 {
		t.Fatalf("stats dropped=%d fwd=%d, want 2/0", sw.Dropped, sw.Forwarded)
	}
}

// TestHairpinUnicastDroppedDeferred is the same property through the
// deferred (parallel-epoch) path: queued hairpin frames are filtered at
// Flush, which still counts them as flushed (they entered the switch).
func TestHairpinUnicastDroppedDeferred(t *testing.T) {
	sw := NewSwitch()
	a, b := sw.NewPort(), sw.NewPort()
	nB := 0
	b.SetReceiver(func([]byte) { nB++ })
	macA, macA2 := MACForVM(1), MACForVM(10)
	a.Send(BuildFrame(Broadcast, macA, nil))
	a.Send(BuildFrame(Broadcast, macA2, nil))

	sw.SetDeferred(true)
	a.Send(BuildFrame(macA2, macA, []byte("local")))
	a.Send(BuildFrame(MACForVM(2), macA, []byte("far"))) // unknown dst: floods
	if n := sw.Flush(); n != 2 {
		t.Fatalf("flushed %d frames, want 2", n)
	}
	sw.SetDeferred(false)
	if nB != 3 { // two broadcasts + one flood; the hairpin must not arrive
		t.Fatalf("B received %d frames, want 3", nB)
	}
	if sw.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", sw.Dropped)
	}
}

// TestBroadcastSourceNotLearned: a frame whose *source* MAC is the broadcast
// address must not be learned — before the fix it entered the fdb, and a
// later frame addressed to ff:ff:.. on a switch with such a poisoned entry
// would have unicast-forwarded instead of flooding. Group-bit (multicast)
// sources are refused the same way, in sync and deferred modes.
func TestBroadcastSourceNotLearned(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		sw := NewSwitch()
		a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
		nB, nC := 0, 0
		b.SetReceiver(func([]byte) { nB++ })
		c.SetReceiver(func([]byte) { nC++ })
		mcast := MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0x01}

		sw.SetDeferred(deferred)
		a.Send(BuildFrame(MACForVM(2), Broadcast, nil)) // broadcast source
		a.Send(BuildFrame(MACForVM(2), mcast, nil))     // multicast source
		b.Send(BuildFrame(Broadcast, MACForVM(2), nil)) // must still flood
		if deferred {
			sw.Flush()
			sw.SetDeferred(false)
		}
		if nC != 3 {
			t.Fatalf("deferred=%v: C received %d frames, want 3 floods", deferred, nC)
		}
		if sw.Flooded != 3 {
			t.Fatalf("deferred=%v: flooded = %d, want 3", deferred, sw.Flooded)
		}
	}
}

// TestDeferredDeliveryFlushesInPortOrder: with the switch deferred (parallel
// host epochs), Send queues and Flush delivers everything in (port id, send
// order) — the property that makes inter-VM traffic independent of worker
// interleaving.
func TestDeferredDeliveryFlushesInPortOrder(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	var got [][]byte
	c.SetReceiver(func(f []byte) { got = append(got, append([]byte(nil), f...)) })
	macA, macB, macC := MACForVM(1), MACForVM(2), MACForVM(3)
	// Teach the switch C's port so deferred unicasts don't flood.
	c.Send(BuildFrame(Broadcast, macC, []byte("hello")))

	sw.SetDeferred(true)
	// Sends arrive "out of order" (as racing workers would): B then A.
	buf := []byte("from-b")
	b.Send(BuildFrame(macC, macB, buf))
	buf[0] = 'X' // the queue must hold a private copy
	a.Send(BuildFrame(macC, macA, []byte("from-a")))
	a.Send(BuildFrame(macC, macA, []byte("from-a2")))
	if len(got) != 0 {
		t.Fatalf("deferred switch delivered early: %d", len(got))
	}
	if n := sw.Flush(); n != 3 {
		t.Fatalf("flushed %d frames, want 3", n)
	}
	want := []string{"from-a", "from-a2", "from-b"} // port order, then send order
	for i, w := range want {
		if string(got[i][12:]) != w {
			t.Fatalf("frame %d = %q, want %q", i, got[i][12:], w)
		}
	}
	// Back to synchronous: Send delivers immediately again.
	sw.SetDeferred(false)
	a.Send(BuildFrame(macC, macA, []byte("sync")))
	if len(got) != 4 || string(got[3][12:]) != "sync" {
		t.Fatal("synchronous mode not restored")
	}
	if n := sw.Flush(); n != 0 {
		t.Fatalf("empty flush delivered %d", n)
	}
}

// TestFlushDeliversInTimestampOrder: ports with clocks stamp each deferred
// frame with the sender's simulated cycle, and Flush sorts by (timestamp,
// port id, send order). A frame sent "earlier in simulated time" from a
// higher-id port must arrive before a later frame from a lower-id port —
// arrival order reflects simulated time, not the flat port walk.
func TestFlushDeliversInTimestampOrder(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	var got []string
	c.SetReceiver(func(f []byte) { got = append(got, string(f[12:])) })
	macA, macB, macC := MACForVM(1), MACForVM(2), MACForVM(3)
	sw.Learn(macC, c)

	var cycA, cycB uint64
	a.SetClock(func() uint64 { return cycA })
	b.SetClock(func() uint64 { return cycB })

	sw.SetDeferred(true)
	cycA = 200
	a.Send(BuildFrame(macC, macA, []byte("a@200")))
	cycA = 250
	a.Send(BuildFrame(macC, macA, []byte("a@250")))
	cycB = 100
	b.Send(BuildFrame(macC, macB, []byte("b@100")))
	cycB = 200 // ties with a@200: port id breaks the tie, a first
	b.Send(BuildFrame(macC, macB, []byte("b@200")))
	if n := sw.Flush(); n != 4 {
		t.Fatalf("flushed %d frames, want 4", n)
	}
	sw.SetDeferred(false)

	want := []string{"b@100", "a@200", "b@200", "a@250"}
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("frame %d = %q, want %q (full order %v)", i, got[i], w, got)
		}
	}
}

// TestLearnStaticEntry: a static FDB entry makes a purely passive port
// reachable by unicast without it ever transmitting.
func TestLearnStaticEntry(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	nB, nC := 0, 0
	b.SetReceiver(func([]byte) { nB++ })
	c.SetReceiver(func([]byte) { nC++ })
	macB := MACForVM(2)
	sw.Learn(macB, b)
	a.Send(BuildFrame(macB, MACForVM(1), []byte("hi")))
	if nB != 1 || nC != 0 {
		t.Fatalf("static unicast: B=%d C=%d, want 1/0", nB, nC)
	}
	if sw.Forwarded != 1 || sw.Flooded != 0 {
		t.Fatalf("stats fwd=%d flood=%d", sw.Forwarded, sw.Flooded)
	}
	fwd, fl, dr := sw.Stats()
	if fwd != 1 || fl != 0 || dr != 0 {
		t.Fatalf("Stats() = %d/%d/%d", fwd, fl, dr)
	}
}

// TestSendFlushAllocatesNothing: the deferred path copies each frame into
// its port's epoch arena and merges the ports' queues in place. A port's
// chunks are allocated once, by the first epoch of this size, and come back
// to it drained; each queue's ref and chunk lists and the merge heap keep
// their capacity. So once an epoch of this size has been through each of a
// port's two queues, neither Send nor Flush touches the heap.
func TestSendFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	macA, macB, macC := MACForVM(1), MACForVM(2), MACForVM(3)
	sw.Learn(macC, c)
	var cycA, cycB, rxBytes uint64
	a.SetClock(func() uint64 { return cycA })
	b.SetClock(func() uint64 { return cycB })
	c.SetReceiver(func(f []byte) { rxBytes += uint64(len(f)) })
	fromA := BuildFrame(macC, macA, make([]byte, 244))
	fromB := BuildFrame(macC, macB, make([]byte, 52))
	sw.SetDeferred(true)
	epochs := 0
	epoch := func() {
		epochs++
		for i := 0; i < 256; i++ {
			cycA += 7
			a.Send(fromA)
			cycB += 5
			b.Send(fromB)
		}
		if n := sw.Flush(); n != 512 {
			t.Fatalf("flushed %d frames, want 512", n)
		}
	}
	epoch() // AllocsPerRun's own warm-up run fills the ports' other queues
	if n := testing.AllocsPerRun(20, epoch); n != 0 {
		t.Fatalf("512 Sends + Flush allocate %v times per epoch, want 0", n)
	}
	if want := uint64(epochs * 256 * (len(fromA) + len(fromB))); rxBytes != want {
		t.Fatalf("received %d bytes, want %d", rxBytes, want)
	}
}

// TestSendDuringFlushWaitsForNextFlush: a receiver that transmits from
// inside a delivery queues on the port's other queue. The reply is never
// delivered by the Flush in progress, survives that Flush truncating the
// arenas it drained, and arrives intact with the next one — whether the
// replying port had frames of its own in this epoch (b: its queues were
// flipped) or not (c: they were not).
func TestSendDuringFlushWaitsForNextFlush(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	macA, macB, macC := MACForVM(1), MACForVM(2), MACForVM(3)
	sw.Learn(macA, a)
	sw.Learn(macB, b)
	sw.Learn(macC, c)
	var gotA []string
	a.SetReceiver(func(f []byte) { gotA = append(gotA, string(f[12:])) })
	reply := func(p *Port, src MAC) func([]byte) {
		return func(f []byte) {
			p.Send(BuildFrame(macA, src, append([]byte("re:"), f[12:]...)))
		}
	}
	b.SetReceiver(reply(b, macB))
	c.SetReceiver(reply(c, macC))

	sw.SetDeferred(true)
	a.Send(BuildFrame(macB, macA, []byte("to-b-1")))
	a.Send(BuildFrame(macC, macA, []byte("to-c")))
	a.Send(BuildFrame(macB, macA, []byte("to-b-2")))
	b.Send(BuildFrame(macA, macB, []byte("from-b")))
	if n := sw.Flush(); n != 4 {
		t.Fatalf("first flush delivered %d frames, want 4", n)
	}
	if len(gotA) != 1 || gotA[0] != "from-b" {
		t.Fatalf("a saw %q during the first flush, want only from-b", gotA)
	}
	// A fresh epoch's worth of sends lands in the queues the first flush
	// drained and truncated; the replies sit in the other ones.
	a.Send(BuildFrame(macB, macA, []byte("next-epoch")))
	if n := sw.Flush(); n != 4 {
		t.Fatalf("second flush delivered %d frames, want 4", n)
	}
	want := []string{"from-b", "re:to-b-1", "re:to-b-2", "re:to-c"} // stamp 0: port order, then send order
	if !slices.Equal(gotA, want) {
		t.Fatalf("a received %q, want %q", gotA, want)
	}
	if n := sw.Flush(); n != 1 { // b's reply to next-epoch
		t.Fatalf("third flush delivered %d frames, want 1", n)
	}
	if n := sw.Flush(); n != 0 {
		t.Fatalf("idle flush delivered %d frames", n)
	}
}

// TestFlushOrderWithBackwardsClock: simulated clocks only move forward, but
// the order must not depend on it — a port whose clock steps back still
// flushes in (stamp, port id, send order).
func TestFlushOrderWithBackwardsClock(t *testing.T) {
	sw := NewSwitch()
	a, b, c := sw.NewPort(), sw.NewPort(), sw.NewPort()
	macA, macB, macC := MACForVM(1), MACForVM(2), MACForVM(3)
	sw.Learn(macC, c)
	var got []string
	c.SetReceiver(func(f []byte) { got = append(got, string(f[12:])) })
	var cycA, cycB uint64
	a.SetClock(func() uint64 { return cycA })
	b.SetClock(func() uint64 { return cycB })

	sw.SetDeferred(true)
	for _, s := range []struct {
		port  *Port
		clock *uint64
		src   MAC
		stamp uint64
		name  string
	}{
		{a, &cycA, macA, 300, "a@300"}, {a, &cycA, macA, 100, "a@100"}, {a, &cycA, macA, 200, "a@200"},
		{a, &cycA, macA, 100, "a@100'"}, {a, &cycA, macA, 300, "a@300'"},
		{b, &cycB, macB, 200, "b@200"}, {b, &cycB, macB, 50, "b@50"}, {b, &cycB, macB, 300, "b@300"},
	} {
		*s.clock = s.stamp
		s.port.Send(BuildFrame(macC, s.src, []byte(s.name)))
	}
	if n := sw.Flush(); n != 8 {
		t.Fatalf("flushed %d frames, want 8", n)
	}
	want := []string{"b@50", "a@100", "a@100'", "a@200", "b@200", "a@300", "a@300'", "b@300"}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %q\nwant      %q", got, want)
	}
}

// TestDeferredFloodIdenticalBytes: a flooded frame is delivered out of the
// sender's arena to every other port — N−1 deliveries, each seeing exactly
// the bytes that were sent, none of them to the sender.
func TestDeferredFloodIdenticalBytes(t *testing.T) {
	const n = 6
	sw := NewSwitch()
	ports := make([]*Port, n)
	got := make([][][]byte, n)
	for i := range ports {
		ports[i] = sw.NewPort()
		ports[i].SetReceiver(func(f []byte) { got[i] = append(got[i], bytes.Clone(f)) })
	}
	sw.SetDeferred(true)
	frame := BuildFrame(Broadcast, MACForVM(3), []byte("to everyone but me"))
	ports[3].Send(frame)
	sent := bytes.Clone(frame)
	clear(frame) // the caller's buffer is the caller's again
	if n := sw.Flush(); n != 1 {
		t.Fatalf("flushed %d frames, want 1", n)
	}
	for i := range ports {
		switch {
		case i == 3 && len(got[i]) != 0:
			t.Fatalf("the sender received its own flood")
		case i != 3 && (len(got[i]) != 1 || !bytes.Equal(got[i][0], sent)):
			t.Fatalf("port %d received %q, want one copy of %q", i, got[i], sent)
		}
	}
	if _, flooded, _ := sw.Stats(); flooded != 1 {
		t.Fatalf("flooded = %d, want 1", flooded)
	}
}

// TestPortFootprintBounded: a port holds one epoch's bytes, not one per
// queue. After each of many epochs of at most E bytes in frames of at most F
// bytes, the port holds at most ⌈E / (chunkSize − F)⌉ chunks, spare or
// queued: every chunk but a queue's last was closed by a frame that did not
// fit in it, so it holds more than chunkSize − F bytes. Two arenas that each
// grow to the peak epoch hold at least 2E, which is more. The ref and chunk
// lists follow the active queue, so at most one queue has a grown list.
func TestPortFootprintBounded(t *testing.T) {
	const (
		minE = 640 << 10 // an epoch sends at least this many bytes
		maxF = 1514      // the largest frame
	)
	sw := NewSwitch()
	p, sink := sw.NewPort(), sw.NewPort()
	dst, src := MACForVM(2), MACForVM(1)
	sw.Learn(dst, sink)
	var rx int
	sink.SetReceiver(func(f []byte) { rx += len(f) })
	var cyc uint64
	p.SetClock(func() uint64 { return cyc })
	sw.SetDeferred(true)

	maxE := 0 // the largest epoch so far
	check := func(epoch int, when string) {
		t.Helper()
		// Count every chunk the port still references, once.
		chunks, bytes := 0, 0
		seen := map[*byte]bool{}
		add := func(c []byte) {
			if cap(c) > 0 && !seen[&c[:1][0]] {
				seen[&c[:1][0]] = true
				chunks, bytes = chunks+1, bytes+cap(c)
			}
		}
		for _, c := range p.spare {
			add(c)
		}
		for _, q := range p.queues {
			for _, c := range q.chunks[:cap(q.chunks)] {
				add(c)
			}
			add(q.tail)
		}
		limit := (maxE + chunkSize - maxF - 1) / (chunkSize - maxF)
		if chunks > limit || bytes > limit*chunkSize {
			t.Fatalf("epoch %d, %s: port holds %d chunks (%d bytes) for %d-byte epochs, want at most %d",
				epoch, when, chunks, bytes, maxE, limit)
		}
		q0, q1 := &p.queues[0], &p.queues[1]
		if cap(q0.refs) > 0 && cap(q1.refs) > 0 || cap(q0.chunks) > 0 && cap(q1.chunks) > 0 {
			t.Fatalf("epoch %d, %s: both queues hold lists (refs %d and %d, chunks %d and %d)",
				epoch, when, cap(q0.refs), cap(q1.refs), cap(q0.chunks), cap(q1.chunks))
		}
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, maxF-12)
	for epoch := 0; epoch < 50; epoch++ {
		e := 0
		for e < minE {
			n := 60 + rng.Intn(maxF-60+1)
			cyc++
			p.Send(BuildFrame(dst, src, payload[:n-12]))
			e += n
		}
		maxE = max(maxE, e)
		check(epoch, "before Flush")
		rx = 0
		sw.Flush()
		if rx != e {
			t.Fatalf("epoch %d: delivered %d bytes, sent %d", epoch, rx, e)
		}
		check(epoch, "after Flush")
	}
}
