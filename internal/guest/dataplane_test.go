package guest

import (
	"fmt"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/sched"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// The dataplane differential suite is the equivalence proof for PR 10's two
// fast paths: timestamp-ordered epoch-barrier frame delivery and memoized
// DMA (span reads and writes through the read/write memos). A fleet of
// unicast sender→receiver pairs over one shared switch must end in byte-identical guest state — cycles,
// registers, CSRs, UART, RAM hashes (which cover the receivers' RX buffers,
// i.e. the delivered frames and their order), VMM/MMU/TLB stats and switch
// counters — at any RunParallel worker count, and on the reference engine
// with its page-by-page DMA.

// dataplanePair describes one sender→receiver flow.
type dataplanePair struct {
	frames, batch, frameLen uint64
}

// buildDataplaneFleet boots pairs of unicast senders and passive receivers
// onto one host sharing a single switch. VM 2i is the sender of pair i,
// VM 2i+1 its receiver. Receiver MACs are statically installed in the FDB
// (passive receivers never transmit, so the switch cannot learn them).
func buildDataplaneFleet(t *testing.T, pairs []dataplanePair, tweak func(*core.Config)) (*core.Host, *vnet.Switch) {
	t.Helper()
	sw := vnet.NewSwitch()
	h := core.NewHost(uint64(2*len(pairs))*(testRAM>>isa.PageShift)+64, 2, sched.NewCredit())
	for i, p := range pairs {
		srcMAC := vnet.MACForVM(uint32(2 * i))
		dstMAC := vnet.MACForVM(uint32(2*i + 1))

		cfg := core.Config{Name: fmt.Sprintf("tx%d", i), Mode: core.ModeHW, MemBytes: testRAM}
		if tweak != nil {
			tweak(&cfg)
		}
		send, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := send.AttachVirtioNet(sw.NewPort()); err != nil {
			t.Fatal(err)
		}
		prog, err := BuildVirtioNetUnicastProgram(p.frames, p.batch, p.frameLen, 0, srcMAC, dstMAC)
		if err != nil {
			t.Fatal(err)
		}
		if err := send.Boot(prog); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(2*i, 256, 0)

		cfg.Name = fmt.Sprintf("rx%d", i)
		recv, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rxPort := sw.NewPort()
		if _, _, err := recv.AttachVirtioNet(rxPort); err != nil {
			t.Fatal(err)
		}
		sw.Learn(dstMAC, rxPort)
		rprog, err := BuildVirtioNetRXProgram(p.frames, 12+p.frameLen, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Boot(rprog); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(2*i+1, 256, 0)
	}
	return h, sw
}

// dataplanePairs staggers frame counts, batch sizes and frame lengths so the
// senders' kicks land at different simulated cycles — the epoch-barrier
// flush really has to sort cross-port by timestamp, not just replay port
// order.
func dataplanePairs() []dataplanePair {
	return []dataplanePair{
		{frames: 16, batch: 4, frameLen: 64},
		{frames: 12, batch: 6, frameLen: 96},
		{frames: 8, batch: 2, frameLen: 128},
	}
}

type swStats struct{ forwarded, flooded, dropped uint64 }

func switchStats(sw *vnet.Switch) swStats {
	f, fl, d := sw.Stats()
	return swStats{f, fl, d}
}

func checkDataplaneDelivery(t *testing.T, label string, h *core.Host, sw *vnet.Switch, pairs []dataplanePair) {
	t.Helper()
	if !h.AllHalted() {
		for _, vm := range h.VMs {
			t.Logf("[%s] %s: state %v err %v pc %#x", label, vm.Name, vm.State, vm.Err, vm.CPU.PC)
		}
		t.Fatalf("[%s] dataplane fleet did not halt", label)
	}
	var want uint64
	for _, p := range pairs {
		want += p.frames
	}
	st := switchStats(sw)
	if st.forwarded != want || st.flooded != 0 || st.dropped != 0 {
		t.Fatalf("[%s] switch stats %+v, want %d unicast forwards, no floods, no drops",
			label, st, want)
	}
	// Every frame landed: each receiver's RX used ring advanced by its
	// sender's frame count. (All pairs post ≤16 buffers, so ringFor sizes
	// every RX ring at its 16-entry floor.)
	_, _, used, _ := virtio.Layout(ioQueueBase, 16)
	for i, p := range pairs {
		recv := h.VMs[2*i+1]
		got, f := recv.Mem.ReadUint(used+2, 2)
		if f != nil {
			t.Fatalf("[%s] rx%d: used.idx read fault", label, i)
		}
		if got != p.frames {
			t.Fatalf("[%s] rx%d received %d frames, want %d", label, i, got, p.frames)
		}
	}
}

// TestDifferentialDataplaneInvisible: the timestamp-ordered switch flush must
// be architecturally invisible. RunParallel with 1..4 workers is
// byte-identical per VM (full comparison including exit counters and
// population stats), and a reference-engine fleet (per-instruction
// interpreter) matches in full.
func TestDifferentialDataplaneInvisible(t *testing.T) {
	pairs := dataplanePairs()

	ref, refSW := buildDataplaneFleet(t, pairs, nil)
	ref.RunParallel(1, 8_000_000_000)
	checkDataplaneDelivery(t, "w=1", ref, refSW, pairs)
	refStats := switchStats(refSW)

	for workers := 2; workers <= 4; workers++ {
		h, sw := buildDataplaneFleet(t, pairs, nil)
		h.RunParallel(workers, 8_000_000_000)
		checkDataplaneDelivery(t, fmt.Sprintf("w=%d", workers), h, sw, pairs)
		if h.Now != ref.Now {
			t.Errorf("w=%d: host clock %d != %d", workers, h.Now, ref.Now)
		}
		if got := switchStats(sw); got != refStats {
			t.Errorf("w=%d: switch stats diverged: %+v vs %+v", workers, got, refStats)
		}
		for i := range h.VMs {
			compareVMs(t, fmt.Sprintf("w=%d vm=%s", workers, h.VMs[i].Name),
				ref.VMs[i], h.VMs[i], true)
		}
	}

	// Reference engine: the per-instruction interpreter. Full comparison —
	// the fast engine may not even perturb population or dirty-tracking
	// counters.
	hn, nsw := buildDataplaneFleet(t, pairs, func(cfg *core.Config) { cfg.Reference = true })
	hn.RunParallel(1, 8_000_000_000)
	checkDataplaneDelivery(t, "ref", hn, nsw, pairs)
	if got := switchStats(nsw); got != refStats {
		t.Errorf("ref: switch stats diverged: %+v vs %+v", got, refStats)
	}
	for i := range hn.VMs {
		checkReferenceVM(t, hn.VMs[i])
		compareVMs(t, fmt.Sprintf("ref vm=%s", hn.VMs[i].Name),
			ref.VMs[i], hn.VMs[i], true)
	}
}

// TestDataplaneConvergedFrames: the receivers' RX buffers contain exactly
// the bytes their senders transmitted, in send order — the payload stamp
// (frame index) ascends through the posted buffers. This nails delivery
// *order*, not just delivery count, at one worker and at four.
func TestDataplaneConvergedFrames(t *testing.T) {
	pairs := dataplanePairs()
	for _, workers := range []int{1, 4} {
		h, sw := buildDataplaneFleet(t, pairs, nil)
		h.RunParallel(workers, 8_000_000_000)
		label := fmt.Sprintf("w=%d", workers)
		checkDataplaneDelivery(t, label, h, sw, pairs)
		for i, p := range pairs {
			recv := h.VMs[2*i+1]
			bufLen := 12 + p.frameLen
			stride := (bufLen + 63) &^ 63
			for fr := uint64(0); fr < p.frames; fr++ {
				// The sender stamps each batch's frames with its sent-count at
				// batch start (buffer offset 24: past the 12-byte virtio-net
				// header and the 12-byte MAC header; the receive path rewrites
				// the virtio-net header as zeros, so the offset is the same in
				// the posted buffer).
				addr := ioDataBase + fr*stride + 24
				got, f := recv.Mem.ReadUint(addr, 8)
				if f != nil {
					t.Fatalf("[%s] rx%d frame %d: stamp read fault", label, i, fr)
				}
				if want := (fr / p.batch) * p.batch; got != want {
					t.Fatalf("[%s] rx%d buffer %d holds batch stamp %d, want %d: frames delivered out of send order",
						label, i, fr, got, want)
				}
			}
		}
	}
}
