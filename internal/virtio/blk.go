package virtio

import "encoding/binary"

// Virtio-blk request types.
const (
	BlkTIn    = 0 // read from disk into guest buffers
	BlkTOut   = 1 // write guest buffers to disk
	BlkTFlush = 4
)

// Virtio-blk status byte values.
const (
	BlkSOK     = 0
	BlkSIOErr  = 1
	BlkSUnsupp = 2
)

// BlkHeaderSize is the request header: type u32, reserved u32, sector u64.
const BlkHeaderSize = 16

// SectorSize mirrors the machine-wide sector size.
const SectorSize = 512

// BlockBackend matches dev.BlockBackend structurally.
type BlockBackend interface {
	ReadSector(lba uint64, buf []byte) error
	WriteSector(lba uint64, buf []byte) error
	Sectors() uint64
}

// Blk is the virtio-blk device model: one request queue carrying
// header / data... / status descriptor chains.
type Blk struct {
	img BlockBackend

	// sector stages one sector between the image and guest memory: a data
	// descriptor streams through it, so its guest-written length never
	// sizes a host buffer.
	sector [SectorSize]byte

	// Stats.
	Requests, SectorsRead, SectorsWritten, Errors uint64
}

// NewBlk creates the model; call Attach to get its MMIO transport.
func NewBlk(img BlockBackend) *Blk { return &Blk{img: img} }

// Bind is the wiring step every backend shares (core calls it when wiring
// the machine). Blk keeps no reference to the transport: it completes only
// inside a kick, and the transport interrupts for those completions.
func (b *Blk) Bind(dev *MMIODev) {}

// DeviceID implements Backend.
func (b *Blk) DeviceID() uint32 { return IDBlock }

// NumQueues implements Backend.
func (b *Blk) NumQueues() int { return 1 }

// ReadConfig implements Backend: config space is the capacity in sectors.
func (b *Blk) ReadConfig(off uint64, size int) uint64 {
	if off == 0 {
		return b.img.Sectors()
	}
	return 0
}

// Process implements Backend: drain the request queue.
func (b *Blk) Process(q *Queue, qi int) {
	q.serve(func(ch Chain) uint32 { return b.handle(q, ch) })
}

// handle executes one request chain and returns the device-written byte
// count (data read + the status byte, when it lands). Data moves a sector
// at a time, so a request that fails part-way has transferred the sectors
// before the failure; written counts whole descriptors only.
func (b *Blk) handle(q *Queue, ch Chain) uint32 {
	b.Requests++
	if len(ch.Buf) < 2 || ch.Buf[0].Device || ch.Buf[0].Len < BlkHeaderSize {
		return b.fail(q, ch)
	}
	var hdr [BlkHeaderSize]byte
	if err := q.ReadFrom(ch.Buf[0], hdr[:]); err != nil {
		return b.fail(q, ch)
	}
	reqType := binary.LittleEndian.Uint32(hdr[0:])
	sector := binary.LittleEndian.Uint64(hdr[8:])
	status := ch.Buf[len(ch.Buf)-1]
	if !status.Device || status.Len < 1 {
		b.Errors++
		return 0
	}
	data := ch.Buf[1 : len(ch.Buf)-1]

	var written uint32
	ok := true
	switch reqType {
	case BlkTIn:
		for _, d := range data {
			if !d.Device || d.Len%SectorSize != 0 {
				ok = false
				break
			}
			for off := uint32(0); off < d.Len; off += SectorSize {
				if err := b.img.ReadSector(sector, b.sector[:]); err != nil {
					ok = false
					break
				}
				sector++
				b.SectorsRead++
				if err := q.WriteTo(sectorOf(d, off), b.sector[:]); err != nil {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			written += d.Len
		}
	case BlkTOut:
		for _, d := range data {
			if d.Device || d.Len%SectorSize != 0 {
				ok = false
				break
			}
			for off := uint32(0); off < d.Len; off += SectorSize {
				if err := q.ReadFrom(sectorOf(d, off), b.sector[:]); err != nil {
					ok = false
					break
				}
				if err := b.img.WriteSector(sector, b.sector[:]); err != nil {
					ok = false
					break
				}
				sector++
				b.SectorsWritten++
			}
			if !ok {
				break
			}
		}
	case BlkTFlush:
		// In-memory images are always durable.
	default:
		return finish(q, status, written, BlkSUnsupp)
	}
	code := byte(BlkSOK)
	if !ok {
		code = BlkSIOErr
		b.Errors++
	}
	return finish(q, status, written, code)
}

// finish writes a request's status byte and returns the chain's
// device-written count: written, plus the status byte if it landed.
func finish(q *Queue, status DescBuf, written uint32, code byte) uint32 {
	if q.WriteTo(status, []byte{code}) != nil {
		return written
	}
	return written + 1
}

// sectorOf is the one-sector window of data descriptor d at byte offset off.
func sectorOf(d DescBuf, off uint32) DescBuf {
	return DescBuf{Addr: d.Addr + uint64(off), Len: SectorSize, Device: d.Device}
}

func (b *Blk) fail(q *Queue, ch Chain) uint32 {
	b.Errors++
	if len(ch.Buf) > 0 {
		last := ch.Buf[len(ch.Buf)-1]
		if last.Device && last.Len >= 1 {
			return finish(q, last, 0, BlkSIOErr)
		}
	}
	return 0
}
