package guest

import (
	"fmt"

	"govisor/internal/asm"
	"govisor/internal/gabi"
	"govisor/internal/isa"
)

// Stream programs are standalone guest images for the benchmark's compute
// and memory workloads: loops whose bodies are long unrolled straight-line runs, the
// shape superblock dispatch is built for. Unlike the I/O programs they run
// with paging enabled (the VMM-prepared identity tables), so the fetch and
// data translation fast paths are exercised alongside block dispatch.

// StreamKind selects the unrolled body.
type StreamKind int

// Stream workload kinds.
const (
	// StreamALU is pure register arithmetic: an unrolled add/xor/shift mix.
	StreamALU StreamKind = iota
	// StreamCopy is a memory copy: unrolled load/store pairs walking a
	// source and a destination buffer within a page each iteration.
	StreamCopy
	// StreamStore is store-dense code: an unrolled run of stores walking
	// two destination pages, the write memo's target shape (every retired
	// op pays the store-resolution cost).
	StreamStore
	// StreamMixed interleaves loads, ALU ops and stores in a fixed 1:1:2
	// pattern — the balance of a data-churning loop, exercising the read
	// and write fast paths together.
	StreamMixed
	// StreamXPageALU is the ALU mix with an unrolled body longer than a
	// code page, so every iteration's superblock must cross page
	// boundaries mid-run — the cross-page continuation target shape.
	StreamXPageALU
	// StreamXPageLoop is a short ALU body deliberately positioned to
	// straddle a page boundary: each iteration enters on one page, crosses,
	// and branches back, so the baseline pays a full fetch translation and
	// icache lookup at the boundary and the back edge every time — the
	// block-chaining target shape.
	StreamXPageLoop
)

// String names the kind.
func (k StreamKind) String() string {
	switch k {
	case StreamCopy:
		return "copy-stream"
	case StreamStore:
		return "store-stream"
	case StreamMixed:
		return "mixed-stream"
	case StreamXPageALU:
		return "xpage-alu-stream"
	case StreamXPageLoop:
		return "xpage-loop-stream"
	}
	return "alu-stream"
}

// BuildStreamProgram assembles a stream guest: `iters` iterations over an
// unrolled body of `unroll` straight-line instructions (ALU ops, or
// load/store pairs for StreamCopy), then HALT(0). The body plus the 2-op
// loop tail fits one code page for unroll ≤ 1000, so each iteration is one
// superblock entry plus a terminator.
func BuildStreamProgram(kind StreamKind, iters, unroll uint64) ([]byte, error) {
	// The cross-page ALU kind exists to exceed a page, so its body may be
	// up to 4000 instructions (16 KB, still well inside branch reach); the
	// boundary-straddling loop must not span more than two pages.
	maxUnroll := uint64(1000)
	if kind == StreamXPageALU {
		maxUnroll = 4000
	}
	if unroll == 0 || unroll > maxUnroll {
		return nil, fmt.Errorf("guest: stream unroll %d out of range (1..%d)", unroll, maxUnroll)
	}
	b := asm.NewBuilder(gabi.KernelBase)
	b.Mv(isa.RegS11, isa.RegA0) // param base
	emitTrapStub(b)             // stray traps halt 0xEE

	// Enable paging with the VMM-prepared identity tables.
	loadParam(b, isa.RegT0, gabi.PSatp)
	b.Csrw(isa.CSRSatp, isa.RegT0)
	b.SfenceVMA(isa.RegZero, isa.RegZero)

	// Buffers for the copy kernel: source at the heap base, destination one
	// page up (immediate offsets walk within the pages).
	loadParam(b, isa.RegS1, gabi.PHeapBase)
	b.I(isa.OpSLLI, isa.RegS1, isa.RegS1, isa.PageShift)
	b.I(isa.OpADDI, isa.RegS2, isa.RegS1, isa.PageSize)

	b.Li(isa.RegS0, iters)
	if kind == StreamXPageLoop {
		// Park the loop entry half a body below the next page boundary so
		// every iteration straddles it: enter on one page, cross mid-block,
		// branch back from the next.
		next := (b.PC() + isa.PageSize) &^ uint64(isa.PageSize-1)
		for b.PC()+unroll/2*4 < next {
			b.Nop()
		}
	}
	b.Label("stream_loop")
	switch kind {
	case StreamCopy:
		// unroll/2 load/store pairs; offsets stay inside one page.
		for i := uint64(0); i+1 < unroll; i += 2 {
			off := int64((i / 2) * 8 % isa.PageSize)
			b.Load(isa.OpLD, isa.RegT1, isa.RegS1, off)
			b.Store(isa.OpSD, isa.RegT1, isa.RegS2, off)
		}
		if unroll%2 != 0 {
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
	case StreamStore:
		// Pure stores alternating between two destination pages; offsets
		// walk within each page so every byte lands somewhere distinct.
		for i := uint64(0); i < unroll; i++ {
			off := int64((i / 2) * 8 % isa.PageSize)
			base := uint8(isa.RegS1)
			if i%2 != 0 {
				base = isa.RegS2
			}
			b.Store(isa.OpSD, isa.RegA0, base, off)
		}
	case StreamMixed:
		// 1 load : 1 ALU : 2 stores per 4-op group.
		for i := uint64(0); i < unroll; i++ {
			off := int64((i / 4) * 8 % isa.PageSize)
			switch i % 4 {
			case 0:
				b.Load(isa.OpLD, isa.RegT1, isa.RegS1, off)
			case 1:
				b.I(isa.OpADDI, isa.RegT1, isa.RegT1, 3)
			case 2:
				b.Store(isa.OpSD, isa.RegT1, isa.RegS2, off)
			default:
				b.Store(isa.OpSD, isa.RegT1, isa.RegS1, off)
			}
		}
	default:
		// StreamALU, and the two cross-page kinds, share the ALU mix: the
		// cross-page variants differ only in body length (StreamXPageALU
		// exceeds a page) or placement (StreamXPageLoop straddles a
		// boundary, positioned above).
		for i := uint64(0); i < unroll; i++ {
			switch i % 4 {
			case 0:
				b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 3)
			case 1:
				b.R(isa.OpXOR, isa.RegA1, isa.RegA1, isa.RegA0)
			case 2:
				b.R(isa.OpADD, isa.RegA2, isa.RegA2, isa.RegA1)
			default:
				b.I(isa.OpSLLI, isa.RegA3, isa.RegA2, 1)
			}
		}
	}
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "stream_loop")
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}
