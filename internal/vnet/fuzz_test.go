package vnet

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzFlushOrder drives arbitrary (port, stamp, length) send sequences —
// clocks stepping backwards, empty ports, single-port bursts, many epochs
// through the same chunks, frames that close a chunk and frames longer than
// one — and checks Flush against the definition it replaced: a stable sort
// of the epoch's sends by (stamp, port id, send order), every frame
// delivered once with exactly the bytes that were sent.
//
// Input: 4-byte records {port | flush<<7, stamp lo, stamp hi, size}. A
// frame carries a 4 + size²·17/16-byte payload: size 10 is 110 bytes, 100 is
// about a sixth of a chunk, and from 248 the frame outgrows a chunk.
func FuzzFlushOrder(f *testing.F) {
	f.Add([]byte{0, 200, 0, 8, 0, 250, 0, 0, 1, 100, 0, 40, 1, 200, 0, 3, 0x80, 0, 0, 0})
	f.Add([]byte{2, 9, 0, 1, 2, 3, 0, 255, 2, 9, 0, 0, 0x82, 1, 0, 7, 3, 1, 0, 7, 0, 1, 0, 7})
	f.Add([]byte{0x81, 0, 1, 64, 0x81, 0, 1, 64, 0x81, 0, 0, 64})
	f.Add(bytes.Repeat([]byte{3, 5, 0, 200}, 40))
	f.Add(bytes.Repeat([]byte{1, 5, 0, 255, 1, 6, 0, 30, 0x81, 7, 0, 180}, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		const senders = 4
		type sent struct {
			port  int
			stamp uint64
			seq   int
			frame []byte
		}
		sw := NewSwitch()
		sw.SetDeferred(true)
		var ports [senders]*Port
		var clocks [senders]uint64
		for i := range ports {
			ports[i] = sw.NewPort()
			ports[i].SetClock(func() uint64 { return clocks[i] })
		}
		sink := sw.NewPort()
		sinkMAC := MACForVM(99)
		sw.Learn(sinkMAC, sink)
		var got [][]byte
		sink.SetReceiver(func(fr []byte) { got = append(got, bytes.Clone(fr)) })

		var epoch []sent
		flush := func() {
			want := append([]sent(nil), epoch...)
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.stamp != b.stamp {
					return a.stamp < b.stamp
				}
				if a.port != b.port {
					return a.port < b.port
				}
				return a.seq < b.seq
			})
			got = got[:0]
			if n := sw.Flush(); n != len(want) {
				t.Fatalf("Flush delivered %d frames, %d were sent", n, len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("sink received %d frames, want %d", len(got), len(want))
			}
			for i, w := range want {
				if !bytes.Equal(got[i], w.frame) {
					t.Fatalf("delivery %d: got frame %x\nwant port %d stamp %d seq %d: %x",
						i, got[i], w.port, w.stamp, w.seq, w.frame)
				}
			}
			epoch = epoch[:0]
		}
		// A MiB of frames reaches every chunk path; more only costs memory.
		for seq, sentBytes := 0, 0; len(data) >= 4 && sentBytes < 1<<20; seq, data = seq+1, data[4:] {
			p := int(data[0] & (senders - 1))
			stamp := uint64(binary.LittleEndian.Uint16(data[1:]))
			size := int(data[3])
			payload := make([]byte, 4+size*size*17/16)
			sentBytes += len(payload)
			binary.LittleEndian.PutUint32(payload, uint32(seq)) // every frame distinct
			for i := 4; i < len(payload); i++ {
				payload[i] = byte(seq + i)
			}
			frame := BuildFrame(sinkMAC, MACForVM(uint32(p)), payload)
			clocks[p] = stamp
			ports[p].Send(frame)
			epoch = append(epoch, sent{port: p, stamp: stamp, seq: seq, frame: bytes.Clone(frame)})
			clear(frame) // Send's caller owns its buffer again
			if data[0]&0x80 != 0 {
				flush()
			}
		}
		flush()
	})
}
