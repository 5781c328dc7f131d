package virtio

import (
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/storage"
)

// fuzzDevice wires backend kind%4 — net, blk, console or balloon — to g and
// returns its transport and its host-side delivery, nil for blk and the
// balloon, which have none.
func fuzzDevice(kind byte, g *mem.GuestPhys) (*MMIODev, func([]byte)) {
	switch kind % 4 {
	case 1:
		b := NewBlk(storage.NewRaw(16))
		d := NewMMIODev("vblk", b, g, nil)
		b.Bind(d)
		return d, nil
	case 2:
		c := NewConsole()
		d := NewMMIODev("vcon", c, g, nil)
		c.Bind(d)
		return d, c.Feed
	case 3:
		b := NewBalloon(parityBalloonOps{})
		d := NewMMIODev("vballoon", b, g, nil)
		b.Bind(d)
		return d, nil
	default:
		n := NewNet(nil)
		d := NewMMIODev("vnet", n, g, nil)
		n.Bind(d)
		return d, n.receive
	}
}

// FuzzVirtqueue throws arbitrary bytes at the rings of one of the four
// backends, picked by kind, then makes a host-side delivery and kicks every
// queue. Whatever the guest scribbles — descriptor loops, wild addresses,
// wrapped length sums, corrupt producer indices — the device must (a) never
// panic, (b) complete every chain it consumes: the number of available-ring
// entries it took must equal the number of used-ring entries it produced,
// or descriptors leak until the ring wedges, and (c) interrupt the guest
// for every step that advanced a used ring, or a driver sleeping on it hangs.
func FuzzVirtqueue(f *testing.F) {
	// Seed: a well-formed single-descriptor TX frame.
	good := make([]byte, 256)
	// desc[0]: addr 0x8000, len 64, flags 0, next 0.
	good[0] = 0x00
	good[1] = 0x80
	good[8] = 64
	f.Add(good, uint16(1), false, byte(0))
	// Seed: a self-chaining (cyclic) descriptor.
	cyclic := make([]byte, 256)
	cyclic[0] = 0x00
	cyclic[1] = 0x80
	cyclic[8] = 16
	cyclic[12] = byte(DescNext)
	f.Add(cyclic, uint16(2), true, byte(0))
	// Seed: descriptor aimed past the end of RAM.
	wild := make([]byte, 256)
	wild[6] = 0xFF // addr = 0xFF000000000000
	wild[8] = 32
	f.Add(wild, uint16(3), true, byte(0))
	f.Add([]byte{}, uint16(0xFFFF), false, byte(0))

	f.Fuzz(func(t *testing.T, ring []byte, availIdx uint16, deliver bool, kind byte) {
		pages := uint64(16)
		g := mem.NewGuestPhys(mem.NewPool(pages*2), pages*isa.PageSize)
		for i := uint64(0); i < pages; i++ {
			if err := g.Populate(i); err != nil {
				t.Fatal(err)
			}
		}
		d, delivery := fuzzDevice(kind, g)
		// Overlay the fuzz bytes on every queue's ring area, then publish
		// the producer index the fuzzer chose.
		overlay := ring
		if len(overlay) > 512 {
			overlay = overlay[:512]
		}
		bases := [...]uint64{0x1000, 0x3000}
		for qi := range d.queues {
			if _, err := d.SetupQueue(qi, bases[qi], 8); err != nil {
				t.Fatal(err)
			}
			if len(overlay) > 0 {
				g.Write(bases[qi], overlay)
			}
			g.WriteUintPriv(d.queues[qi].avail+2, 2, uint64(availIdx))
		}

		// step runs one device entry with the interrupt acknowledged, so a
		// step whose completions raised nothing shows.
		step := func(what string, fn func()) {
			d.MMIOWrite(RegIntAck, 4, 1)
			var before [len(bases)]uint16
			for qi := range d.queues {
				before[qi] = d.queues[qi].usedIdx
			}
			fn()
			for qi := range d.queues {
				if d.queues[qi].usedIdx != before[qi] && !d.InterruptPending() {
					t.Fatalf("%s: queue %d used idx %d -> %d with no interrupt",
						what, qi, before[qi], d.queues[qi].usedIdx)
				}
			}
		}
		if deliver && delivery != nil {
			frame := make([]byte, 64)
			for i := range frame {
				frame[i] = byte(i)
			}
			step("delivery", func() { delivery(frame) })
		}
		for qi := len(d.queues) - 1; qi >= 0; qi-- {
			step("kick", func() { d.MMIOWrite(RegNotify, 4, uint64(qi)) })
		}

		for qi := range d.queues {
			if q := &d.queues[qi]; q.lastAvail != q.usedIdx {
				t.Fatalf("queue %d leaked descriptors: consumed %d chains, completed %d",
					qi, q.lastAvail, q.usedIdx)
			}
		}
	})
}
