package guest

import (
	"encoding/binary"
	"fmt"

	"govisor/internal/asm"
	"govisor/internal/dev"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/virtio"
)

// I/O benchmark programs are standalone guest images (not the universal
// kernel): straight-line drivers for the programmed-I/O baseline devices
// and for virtio queues, bracketed by HCMarker(1)/HCMarker(2) so the host
// measures exactly the I/O region. They run under any virtualization mode
// (bare addressing: SATP stays off — the I/O path, not the MMU, is under
// test).

// Guest-physical layout used by the virtio programs.
const (
	ioQueueBase  = 0x30000 // virtqueue rings
	ioHdrBase    = 0x38000 // request headers (32 B apart)
	ioStatusBase = 0x3C000 // status bytes
	ioDataBase   = 0x40000 // data buffers (512 B per in-flight request)
)

func emitMarker(b *asm.Builder, id uint64) {
	b.Li(isa.RegA0, id)
	b.Li(isa.RegA7, gabi.HCMarker)
	b.Ecall()
}

// emitTrapStub installs a catch-all trap handler that halts with 0xEE, so a
// bug in an I/O program surfaces as a visible halt code instead of a wild
// jump through stvec = 0.
func emitTrapStub(b *asm.Builder) {
	b.La(isa.RegT0, "io_trap")
	b.Csrw(isa.CSRStvec, isa.RegT0)
}

// emitTrapStubBody must be emitted once at the end of the program.
func emitTrapStubBody(b *asm.Builder) {
	b.Align(4)
	b.Label("io_trap")
	b.Halt(0xEE)
}

// BuildPIODiskProgram emits a guest that writes (write=true) or reads
// `sectors` sectors through the programmed-I/O disk, one register access at
// a time — the emulated-device baseline of T6.
func BuildPIODiskProgram(sectors uint64, write bool) ([]byte, error) {
	b := asm.NewBuilder(gabi.KernelBase)
	emitTrapStub(b)
	emitMarker(b, 1)
	b.Li(isa.RegS0, 0)       // sector counter
	b.Li(isa.RegS1, sectors) // limit
	b.Li(isa.RegT0, dev.PIODiskBase)

	b.Label("sector_loop")
	b.Store(isa.OpSD, isa.RegS0, isa.RegT0, dev.PIODiskSector)
	b.Li(isa.RegT1, dev.PIODiskCmdRewind)
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, dev.PIODiskCmd)
	if write {
		b.Li(isa.RegT2, dev.SectorSize/8)
		b.Label("data_loop")
		b.Store(isa.OpSD, isa.RegS0, isa.RegT0, dev.PIODiskData)
		b.I(isa.OpADDI, isa.RegT2, isa.RegT2, -1)
		b.Branch(isa.OpBNE, isa.RegT2, isa.RegZero, "data_loop")
		b.Li(isa.RegT1, dev.PIODiskCmdWrite)
		b.Store(isa.OpSD, isa.RegT1, isa.RegT0, dev.PIODiskCmd)
	} else {
		b.Li(isa.RegT1, dev.PIODiskCmdRead)
		b.Store(isa.OpSD, isa.RegT1, isa.RegT0, dev.PIODiskCmd)
		b.Li(isa.RegT2, dev.SectorSize/8)
		b.Label("data_loop")
		b.Load(isa.OpLD, isa.RegT3, isa.RegT0, dev.PIODiskData)
		b.I(isa.OpADDI, isa.RegT2, isa.RegT2, -1)
		b.Branch(isa.OpBNE, isa.RegT2, isa.RegZero, "data_loop")
	}
	b.Load(isa.OpLD, isa.RegT3, isa.RegT0, dev.PIODiskStatus)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, 1)
	b.Branch(isa.OpBLTU, isa.RegS0, isa.RegS1, "sector_loop")

	emitMarker(b, 2)
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}

// ringFor sizes a power-of-two ring holding descPerReq×batch descriptors.
func ringFor(batch, descPerReq uint64) (uint16, error) {
	num := uint64(16)
	for num < descPerReq*batch {
		num *= 2
	}
	if num > virtio.MaxQueueSize {
		return 0, fmt.Errorf("guest: batch %d needs ring beyond %d", batch, virtio.MaxQueueSize)
	}
	return uint16(num), nil
}

// emitQueueSetup programs the virtio-mmio queue registers (one-time cost,
// outside the measured region). Clobbers t0/t1.
func emitQueueSetup(b *asm.Builder, devBase uint64, queue int, num uint16, descB, availB, usedB uint64) {
	b.Li(isa.RegT0, devBase)
	b.Li(isa.RegT1, uint64(queue))
	b.Store(isa.OpSW, isa.RegT1, isa.RegT0, virtio.RegQueueSel)
	b.Li(isa.RegT1, uint64(num))
	b.Store(isa.OpSW, isa.RegT1, isa.RegT0, virtio.RegQueueNum)
	b.Li(isa.RegT1, descB)
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, virtio.RegQueueDesc)
	b.Li(isa.RegT1, availB)
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, virtio.RegQueueAvail)
	b.Li(isa.RegT1, usedB)
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, virtio.RegQueueUsed)
	b.Li(isa.RegT1, 1)
	b.Store(isa.OpSW, isa.RegT1, isa.RegT0, virtio.RegQueueReady)
}

// BuildVirtioBlkProgram emits a guest that issues `total` sector writes
// through virtio-blk in batches of `batch` requests per doorbell kick —
// the paravirtual side of T6 and the queue-depth ablation A4. slot is the
// virtio slot index the device was attached at (0 for the first device).
//
// Register plan: s0 done, s1 total, s2 avail-idx shadow, s3 sector,
// s4 request-in-batch, s5 batch, t* scratch.
func BuildVirtioBlkProgram(total, batch uint64, slot int) ([]byte, error) {
	if batch == 0 || total == 0 || total%batch != 0 {
		return nil, fmt.Errorf("guest: total %d not a multiple of batch %d", total, batch)
	}
	num, err := ringFor(batch, 3)
	if err != nil {
		return nil, err
	}
	descB, availB, usedB, _ := virtio.Layout(ioQueueBase, num)
	devBase := uint64(dev.VirtioBase + slot*dev.VirtioStride)

	b := asm.NewBuilder(gabi.KernelBase)
	emitTrapStub(b)
	emitQueueSetup(b, devBase, 0, num, descB, availB, usedB)
	emitMarker(b, 1)

	b.Li(isa.RegS0, 0)
	b.Li(isa.RegS1, total)
	b.Li(isa.RegS2, 0)
	b.Li(isa.RegS3, 0)
	b.Li(isa.RegS5, batch)

	b.Label("batch_loop")
	b.Li(isa.RegS4, 0)

	b.Label("req_loop")
	// t1 = head = 3r.
	b.I(isa.OpSLLI, isa.RegT1, isa.RegS4, 1)
	b.R(isa.OpADD, isa.RegT1, isa.RegT1, isa.RegS4)
	// t2 = &desc[head].
	b.I(isa.OpSLLI, isa.RegT2, isa.RegT1, 4)
	b.Li(isa.RegT3, descB)
	b.R(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT3)
	// t4 = header address; fill {type=OUT, sector}.
	b.I(isa.OpSLLI, isa.RegT4, isa.RegS4, 5)
	b.Li(isa.RegT3, ioHdrBase)
	b.R(isa.OpADD, isa.RegT4, isa.RegT4, isa.RegT3)
	b.Li(isa.RegT5, virtio.BlkTOut)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT4, 0)
	b.Store(isa.OpSD, isa.RegS3, isa.RegT4, 8)
	// desc[head] = {hdr, 16, NEXT, head+1}.
	b.Store(isa.OpSD, isa.RegT4, isa.RegT2, 0)
	b.Li(isa.RegT5, virtio.BlkHeaderSize)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT2, 8)
	b.Li(isa.RegT5, uint64(virtio.DescNext))
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 12)
	b.I(isa.OpADDI, isa.RegT5, isa.RegT1, 1)
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 14)
	// t4 = data buffer; desc[head+1] = {data, 512, NEXT, head+2}.
	b.I(isa.OpSLLI, isa.RegT4, isa.RegS4, 9)
	b.Li(isa.RegT3, ioDataBase)
	b.R(isa.OpADD, isa.RegT4, isa.RegT4, isa.RegT3)
	b.Store(isa.OpSD, isa.RegT4, isa.RegT2, 16)
	b.Li(isa.RegT5, virtio.SectorSize)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT2, 24)
	b.Li(isa.RegT5, uint64(virtio.DescNext))
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 28)
	b.I(isa.OpADDI, isa.RegT5, isa.RegT1, 2)
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 30)
	// t4 = status byte; desc[head+2] = {status, 1, WRITE, 0}.
	b.Li(isa.RegT3, ioStatusBase)
	b.R(isa.OpADD, isa.RegT4, isa.RegS4, isa.RegT3)
	b.Store(isa.OpSD, isa.RegT4, isa.RegT2, 32)
	b.Li(isa.RegT5, 1)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT2, 40)
	b.Li(isa.RegT5, uint64(virtio.DescWrite))
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 44)
	b.Store(isa.OpSH, isa.RegZero, isa.RegT2, 46)
	// avail.ring[s2 & (num-1)] = head.
	b.I(isa.OpANDI, isa.RegT5, isa.RegS2, int64(num-1))
	b.I(isa.OpSLLI, isa.RegT5, isa.RegT5, 1)
	b.Li(isa.RegT3, availB+4)
	b.R(isa.OpADD, isa.RegT5, isa.RegT5, isa.RegT3)
	b.Store(isa.OpSH, isa.RegT1, isa.RegT5, 0)
	b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
	b.I(isa.OpADDI, isa.RegS3, isa.RegS3, 1)
	b.I(isa.OpADDI, isa.RegS4, isa.RegS4, 1)
	b.Branch(isa.OpBLTU, isa.RegS4, isa.RegS5, "req_loop")

	// Publish the batch and kick once.
	b.Li(isa.RegT3, availB)
	b.Store(isa.OpSH, isa.RegS2, isa.RegT3, 2)
	b.Li(isa.RegT0, devBase)
	b.Store(isa.OpSW, isa.RegZero, isa.RegT0, virtio.RegNotify)
	// Poll completion: used.idx catches up to the shadow (synchronous
	// device model ⇒ first read succeeds; loop kept for protocol fidelity).
	b.Li(isa.RegT3, usedB)
	b.Label("poll")
	b.Load(isa.OpLHU, isa.RegT4, isa.RegT3, 2)
	b.I(isa.OpANDI, isa.RegT5, isa.RegS2, 0xFFFF)
	b.Branch(isa.OpBNE, isa.RegT4, isa.RegT5, "poll")
	// Acknowledge the interrupt (one more MMIO write, as a real driver).
	b.Li(isa.RegT5, 1)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT0, virtio.RegIntAck)

	b.R(isa.OpADD, isa.RegS0, isa.RegS0, isa.RegS5)
	b.Branch(isa.OpBLTU, isa.RegS0, isa.RegS1, "batch_loop")

	emitMarker(b, 2)
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}

// BuildRegNICProgram emits a guest transmitting `frames` frames of
// `frameLen` bytes through the register-banged NIC: one MMIO store per
// 8 bytes — the emulated-NIC baseline of T6.
func BuildRegNICProgram(frames, frameLen uint64) ([]byte, error) {
	if frameLen < 12 || frameLen > dev.MaxFrameSize {
		return nil, fmt.Errorf("guest: frame length %d out of range", frameLen)
	}
	b := asm.NewBuilder(gabi.KernelBase)
	emitTrapStub(b)
	emitMarker(b, 1)
	b.Li(isa.RegS0, 0)
	b.Li(isa.RegS1, frames)
	b.Li(isa.RegT0, dev.RegNICBase)

	words := (frameLen + 7) / 8
	b.Label("frame_loop")
	b.Li(isa.RegT1, frameLen)
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, dev.RegNICTxLen)
	// Ethernet header first (two words): broadcast dst plus a fixed
	// locally-administered unicast src 02:00:00:00:00:01, so the switch
	// floods every frame instead of filtering it as a hairpin.
	b.Li(isa.RegT3, 0x0002FFFFFFFFFFFF)
	b.Store(isa.OpSD, isa.RegT3, isa.RegT0, dev.RegNICTxData)
	b.Li(isa.RegT3, 0x0000000001000000)
	b.Store(isa.OpSD, isa.RegT3, isa.RegT0, dev.RegNICTxData)
	b.Li(isa.RegT2, words-2)
	b.Branch(isa.OpBEQ, isa.RegT2, isa.RegZero, "words_done")
	b.Label("word_loop")
	b.Store(isa.OpSD, isa.RegS0, isa.RegT0, dev.RegNICTxData)
	b.I(isa.OpADDI, isa.RegT2, isa.RegT2, -1)
	b.Branch(isa.OpBNE, isa.RegT2, isa.RegZero, "word_loop")
	b.Label("words_done")
	b.Store(isa.OpSD, isa.RegT1, isa.RegT0, dev.RegNICTxSend)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, 1)
	b.Branch(isa.OpBLTU, isa.RegS0, isa.RegS1, "frame_loop")

	emitMarker(b, 2)
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}

// BuildVirtioNetProgram emits a guest transmitting `frames` frames of
// `frameLen` bytes through virtio-net, `batch` frames per kick. Frames are
// contiguous (virtio-net header + payload) single-descriptor chains with a
// broadcast destination: the switch floods every frame instead of filtering
// it as a hairpin.
func BuildVirtioNetProgram(frames, batch, frameLen uint64, slot int) ([]byte, error) {
	// Broadcast dst ff:ff:ff:ff:ff:ff plus a fixed locally-administered
	// unicast src 02:00:00:00:00:01.
	return buildVirtioNetTX(frames, batch, frameLen, slot,
		[6]byte{0x02, 0, 0, 0, 0, 0x01}, [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
}

// BuildVirtioNetUnicastProgram is BuildVirtioNetProgram with explicit
// source and destination MACs, so frames steer through the switch FDB to a
// specific peer instead of flooding — the sender half of the dataplane
// workloads and the timestamp-ordering differential suite.
func BuildVirtioNetUnicastProgram(frames, batch, frameLen uint64, slot int, src, dst [6]byte) ([]byte, error) {
	return buildVirtioNetTX(frames, batch, frameLen, slot, src, dst)
}

func buildVirtioNetTX(frames, batch, frameLen uint64, slot int, src, dst [6]byte) ([]byte, error) {
	if batch == 0 || frames == 0 || frames%batch != 0 {
		return nil, fmt.Errorf("guest: frames %d not a multiple of batch %d", frames, batch)
	}
	if frameLen < 12 || frameLen > dev.MaxFrameSize {
		return nil, fmt.Errorf("guest: frame length %d out of range", frameLen)
	}
	// The Ethernet header sits past the 12-byte virtio-net header: bytes
	// 12..18 dst, 18..24 src. Emitted as two doubleword stores at buffer
	// offsets 8 and 16 (bytes 8..12 are the virtio-net header's zero tail).
	var hdr [24]byte
	copy(hdr[12:18], dst[:])
	copy(hdr[18:24], src[:])
	hdrW1 := binary.LittleEndian.Uint64(hdr[8:16])
	hdrW2 := binary.LittleEndian.Uint64(hdr[16:24])
	num, err := ringFor(batch, 1)
	if err != nil {
		return nil, err
	}
	descB, availB, usedB, _ := virtio.Layout(ioQueueBase, num)
	devBase := uint64(dev.VirtioBase + slot*dev.VirtioStride)
	bufLen := virtio.NetHeaderSize + frameLen
	bufStride := (bufLen + 63) &^ 63

	b := asm.NewBuilder(gabi.KernelBase)
	emitTrapStub(b)
	emitQueueSetup(b, devBase, virtio.NetTXQueue, num, descB, availB, usedB)
	emitMarker(b, 1)

	b.Li(isa.RegS0, 0) // frames sent
	b.Li(isa.RegS1, frames)
	b.Li(isa.RegS2, 0) // avail idx shadow
	b.Li(isa.RegS5, batch)

	b.Label("batch_loop")
	b.Li(isa.RegS4, 0)
	b.Label("frame_loop")
	// desc[r] = {buffer, bufLen, 0, 0}.
	b.I(isa.OpSLLI, isa.RegT2, isa.RegS4, 4)
	b.Li(isa.RegT3, descB)
	b.R(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT3)
	b.Li(isa.RegT3, bufStride)
	b.R(isa.OpMUL, isa.RegT4, isa.RegS4, isa.RegT3)
	b.Li(isa.RegT3, ioDataBase)
	b.R(isa.OpADD, isa.RegT4, isa.RegT4, isa.RegT3)
	// Ethernet header words, then stamp a payload word so the switch sees
	// fresh bytes.
	b.Li(isa.RegT5, hdrW1)
	b.Store(isa.OpSD, isa.RegT5, isa.RegT4, 8)
	b.Li(isa.RegT5, hdrW2)
	b.Store(isa.OpSD, isa.RegT5, isa.RegT4, 16)
	b.Store(isa.OpSD, isa.RegS0, isa.RegT4, 24)
	b.Store(isa.OpSD, isa.RegT4, isa.RegT2, 0)
	b.Li(isa.RegT5, bufLen)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT2, 8)
	b.Store(isa.OpSH, isa.RegZero, isa.RegT2, 12)
	b.Store(isa.OpSH, isa.RegZero, isa.RegT2, 14)
	// avail.ring[s2 & mask] = r.
	b.I(isa.OpANDI, isa.RegT5, isa.RegS2, int64(num-1))
	b.I(isa.OpSLLI, isa.RegT5, isa.RegT5, 1)
	b.Li(isa.RegT3, availB+4)
	b.R(isa.OpADD, isa.RegT5, isa.RegT5, isa.RegT3)
	b.Store(isa.OpSH, isa.RegS4, isa.RegT5, 0)
	b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
	b.I(isa.OpADDI, isa.RegS4, isa.RegS4, 1)
	b.Branch(isa.OpBLTU, isa.RegS4, isa.RegS5, "frame_loop")

	b.Li(isa.RegT3, availB)
	b.Store(isa.OpSH, isa.RegS2, isa.RegT3, 2)
	b.Li(isa.RegT0, devBase)
	b.Li(isa.RegT1, virtio.NetTXQueue)
	b.Store(isa.OpSW, isa.RegT1, isa.RegT0, virtio.RegNotify)
	b.Li(isa.RegT3, usedB)
	b.Label("poll")
	b.Load(isa.OpLHU, isa.RegT4, isa.RegT3, 2)
	b.I(isa.OpANDI, isa.RegT5, isa.RegS2, 0xFFFF)
	b.Branch(isa.OpBNE, isa.RegT4, isa.RegT5, "poll")
	b.Li(isa.RegT5, 1)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT0, virtio.RegIntAck)

	b.R(isa.OpADD, isa.RegS0, isa.RegS0, isa.RegS5)
	b.Branch(isa.OpBLTU, isa.RegS0, isa.RegS1, "batch_loop")

	emitMarker(b, 2)
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}

// BuildVirtioNetRXProgram emits a passive receiver: it arms the virtio-net
// RX queue, posts `bufs` device-writable buffers of `bufLen` bytes each,
// kicks once and halts. Frames steered to it land in the posted buffers at
// epoch barriers while the vCPU sits halted — the receiver half of the
// dataplane workloads and the timestamp-ordering differential suite (interrupts
// on a halted vCPU only set the pending bit, so delivery order is observable
// purely through guest memory).
func BuildVirtioNetRXProgram(bufs, bufLen uint64, slot int) ([]byte, error) {
	if bufs == 0 || bufLen < virtio.NetHeaderSize || bufLen > dev.MaxFrameSize+virtio.NetHeaderSize {
		return nil, fmt.Errorf("guest: %d rx buffers of %d bytes out of range", bufs, bufLen)
	}
	num, err := ringFor(bufs, 1)
	if err != nil {
		return nil, err
	}
	descB, availB, usedB, _ := virtio.Layout(ioQueueBase, num)
	devBase := uint64(dev.VirtioBase + slot*dev.VirtioStride)
	bufStride := (bufLen + 63) &^ 63

	b := asm.NewBuilder(gabi.KernelBase)
	emitTrapStub(b)
	emitQueueSetup(b, devBase, virtio.NetRXQueue, num, descB, availB, usedB)

	b.Li(isa.RegS4, 0) // buffer index
	b.Li(isa.RegS5, bufs)
	b.Label("post_loop")
	// desc[i] = {ioDataBase + i*stride, bufLen, WRITE, 0}.
	b.I(isa.OpSLLI, isa.RegT2, isa.RegS4, 4)
	b.Li(isa.RegT3, descB)
	b.R(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT3)
	b.Li(isa.RegT3, bufStride)
	b.R(isa.OpMUL, isa.RegT4, isa.RegS4, isa.RegT3)
	b.Li(isa.RegT3, ioDataBase)
	b.R(isa.OpADD, isa.RegT4, isa.RegT4, isa.RegT3)
	b.Store(isa.OpSD, isa.RegT4, isa.RegT2, 0)
	b.Li(isa.RegT5, bufLen)
	b.Store(isa.OpSW, isa.RegT5, isa.RegT2, 8)
	b.Li(isa.RegT5, uint64(virtio.DescWrite))
	b.Store(isa.OpSH, isa.RegT5, isa.RegT2, 12)
	b.Store(isa.OpSH, isa.RegZero, isa.RegT2, 14)
	// avail.ring[i] = i.
	b.I(isa.OpSLLI, isa.RegT5, isa.RegS4, 1)
	b.Li(isa.RegT3, availB+4)
	b.R(isa.OpADD, isa.RegT5, isa.RegT5, isa.RegT3)
	b.Store(isa.OpSH, isa.RegS4, isa.RegT5, 0)
	b.I(isa.OpADDI, isa.RegS4, isa.RegS4, 1)
	b.Branch(isa.OpBLTU, isa.RegS4, isa.RegS5, "post_loop")

	// Publish all buffers, kick once, halt.
	b.Li(isa.RegT3, availB)
	b.Store(isa.OpSH, isa.RegS5, isa.RegT3, 2)
	b.Li(isa.RegT0, devBase)
	b.Li(isa.RegT1, virtio.NetRXQueue)
	b.Store(isa.OpSW, isa.RegT1, isa.RegT0, virtio.RegNotify)
	b.Halt(0)
	emitTrapStubBody(b)
	return b.Finish()
}
