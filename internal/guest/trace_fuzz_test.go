package guest

import (
	"fmt"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/isa"
)

// fuzzCursor doles out fuzz bytes, falling back to a fixed rotation when the
// input runs dry so every prefix still decodes to a complete, valid guest.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() byte {
	if c.pos >= len(c.data) {
		c.pos++
		return byte(c.pos * 37)
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// buildTraceFuzzImg decodes fuzz bytes into a bounded hot-loop guest: the
// iteration count, segment layout, per-segment instruction mix, terminator
// kinds (counted inner loops and alternating branches among them, which
// keep both ways of a chain set live), SMC patch placement and SFENCE
// cadence all come from the input, so the fuzzer explores chain/SMC/SFENCE
// interleavings the fixed seeds of the differential suite never pin down. Every decode yields a valid image — the
// instruction vocabulary is closed and labels always resolve.
func buildTraceFuzzImg(data []byte) ([]byte, error) {
	c := &fuzzCursor{data: data}
	b := asm.NewBuilder(gabi.KernelBase)
	b.Mv(isa.RegS11, isa.RegA0)
	emitTrapStub(b)

	loadParam(b, isa.RegT0, gabi.PSatp)
	b.Csrw(isa.CSRSatp, isa.RegT0)
	b.SfenceVMA(isa.RegZero, isa.RegZero)
	loadParam(b, isa.RegS1, gabi.PHeapBase)
	b.I(isa.OpSLLI, isa.RegS1, isa.RegS1, isa.PageShift)

	iters := uint64(24 + int(c.next())%72)
	nseg := 2 + int(c.next())%4
	patchSeg := int(c.next()) % nseg
	patchOn := c.next()%2 == 0
	fenceMask := []int64{0, 7, 15, 31}[c.next()%4] // 0: no fences
	smcAt := iters / 2

	b.Li(isa.RegS0, iters)
	b.Li(isa.RegS2, 0)

	seg := func(i int) string { return fmt.Sprintf("seg%d", i) }
	b.Label("top")
	for i := 0; i < nseg; i++ {
		b.Label(seg(i))
		if c.next()%2 == 0 {
			next := (b.PC() + isa.PageSize) &^ uint64(isa.PageSize-1)
			lead := uint64(2+int(c.next())%8) * 4
			for b.PC()+lead < next {
				b.Nop()
			}
		}
		for k, blen := 0, 8+int(c.next())%24; k < blen; k++ {
			switch c.next() % 8 {
			case 0:
				b.I(isa.OpADDI, isa.RegA0, isa.RegA0, int64(1+int(c.next())%7))
			case 1:
				b.R(isa.OpXOR, isa.RegA1, isa.RegA1, isa.RegA0)
			case 2:
				b.R(isa.OpADD, isa.RegA2, isa.RegA2, isa.RegA1)
			case 3:
				b.I(isa.OpSLLI, isa.RegA3, isa.RegA2, int64(1+int(c.next())%3))
			case 4:
				b.Load(isa.OpLD, isa.RegT1, isa.RegS1, int64(int(c.next())%64)*8)
			case 5:
				b.Store(isa.OpSD, isa.RegA2, isa.RegS1, int64(int(c.next())%64)*8)
			default:
				b.I(isa.OpADDI, isa.RegA4, isa.RegA4, 1)
			}
		}
		if i == patchSeg && patchOn {
			b.Label("patch_slot")
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		switch c.next() % 6 {
		case 0: // fallthrough
		case 1:
			b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, seg(i+1))
		case 2:
			b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, seg(i+1))
		case 3:
			b.J(seg(i + 1))
		case 4:
			// Counted inner loop of 2–40 trips: its back edge exits on
			// every outer pass, so both of the branch's ways stay live.
			inner := fmt.Sprintf("inner%d", i)
			b.Li(isa.RegT4, uint64(2+int(c.next())%39))
			b.Label(inner)
			b.I(isa.OpADDI, isa.RegA5, isa.RegA5, 1)
			b.R(isa.OpXOR, isa.RegA1, isa.RegA1, isa.RegA5)
			b.I(isa.OpADDI, isa.RegT4, isa.RegT4, -1)
			b.Branch(isa.OpBNE, isa.RegT4, isa.RegZero, inner)
		case 5:
			// A branch whose direction flips every 1, 2, 4 or 8 outer
			// passes: both ways are recorded, and other sources sharing
			// the set compete with them for way replacement.
			alt := fmt.Sprintf("alt%d", i)
			b.I(isa.OpANDI, isa.RegT5, isa.RegS2, int64(1)<<(c.next()%4))
			b.Branch(isa.OpBEQ, isa.RegT5, isa.RegZero, alt)
			b.I(isa.OpADDI, isa.RegA6, isa.RegA6, 1)
			b.Label(alt)
		}
	}
	b.Label(seg(nseg))

	if patchOn {
		b.Li(isa.RegT0, smcAt)
		b.Branch(isa.OpBNE, isa.RegS2, isa.RegT0, "no_smc")
		b.La(isa.RegT3, "patch_slot")
		b.Li(isa.RegT2, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
		b.Store(isa.OpSW, isa.RegT2, isa.RegT3, 0)
		b.Label("no_smc")
	}
	if fenceMask != 0 {
		b.I(isa.OpANDI, isa.RegT0, isa.RegS2, fenceMask)
		b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "no_flush")
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Label("no_flush")
	}

	b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, "done")
	b.J("top")
	b.Label("done")
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}

// FuzzTraceFormation drives fuzz-decoded hot-loop guests through the fast
// engine and the reference interpreter, asserting byte-identical final state
// — the refinement suite extended to adversarial chain/SMC/SFENCE
// interleavings.
func FuzzTraceFormation(f *testing.F) {
	// Seeds: a calm hot loop (pure formation), SMC mid-run, dense fences,
	// fences plus SMC, a branchy multi-segment layout, two counted inner
	// loops, an inner loop between two alternating branches with a page
	// straddle, SMC and fences, and two alternating branches with SMC.
	f.Add([]byte{96, 0, 0, 1, 0, 0, 4, 8, 0, 1, 2, 3, 4, 5, 6, 7, 0})
	f.Add([]byte{72, 1, 0, 0, 0, 1, 6, 12, 5, 4, 3, 2, 1, 0, 3})
	f.Add([]byte{60, 0, 0, 1, 1, 0, 2, 16, 7, 7, 7, 7, 1})
	f.Add([]byte{88, 1, 1, 0, 2, 0, 0, 20, 6, 5, 4, 3, 2, 1, 0, 2})
	f.Add([]byte{48, 3, 2, 0, 3, 1, 2, 9, 1, 3, 1, 0, 1, 2, 0, 9, 2, 3, 1, 7, 3, 0, 1, 9, 3})
	f.Add([]byte{60, 0, 0, 1, 0,
		1, 0, 6, 6, 6, 6, 6, 6, 6, 6, 4, 14,
		1, 0, 6, 6, 6, 6, 6, 6, 6, 6, 4, 3})
	f.Add([]byte{40, 1, 1, 0, 1,
		0, 3, 4, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 5, 1,
		1, 0, 6, 6, 6, 6, 6, 6, 6, 6, 4, 38,
		1, 0, 7, 7, 7, 7, 7, 7, 7, 7, 5, 0})
	f.Add([]byte{20, 0, 0, 0, 0,
		1, 2, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 3,
		1, 0, 7, 7, 7, 7, 7, 7, 7, 7, 5, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("bounded: layout decoding never consumes more")
		}
		img, err := buildTraceFuzzImg(data)
		if err != nil {
			t.Fatalf("decoded image failed to assemble: %v", err)
		}
		boot := func(reference bool) *core.VM {
			vm := bootImage(t, core.ModeHW, img, func(c *core.Config) { c.Reference = reference })
			if st := vm.RunToHalt(runBudget); st != core.StateHalted {
				t.Fatalf("reference=%v: final state %v (err=%v, pc=%#x)", reference, st, vm.Err, vm.CPU.PC)
			}
			if vm.HaltCode != 0 {
				t.Fatalf("reference=%v: guest panicked: halt=%#x", reference, vm.HaltCode)
			}
			return vm
		}
		base := boot(false)
		oracle := boot(true)
		compareVMs(t, "trace-fuzz-oracle", oracle, base, true)
	})
}
