// Package storage implements the disk images backing block devices: a raw
// in-memory image and a copy-on-write layered image with backing chains —
// the substrate for instant VM cloning, snapshot trees, and the COW-depth
// experiment F15.
//
// Both images hold their sectors in one sector store with the memory pool's
// zero rule: a written sector is present (it counts in Allocated and shadows
// a COW layer's backing) whatever its bytes, but host memory is spent only on
// an extent that has been written a non-zero byte. Allocated therefore counts
// written sectors, not host memory.
package storage

import (
	"errors"
	"fmt"

	"govisor/internal/mem"
)

// SectorSize matches dev.SectorSize; kept as its own constant so the storage
// layer has no dependency on the device layer.
const SectorSize = 512

// ErrOutOfRange is returned for accesses beyond the end of the image.
var ErrOutOfRange = errors.New("storage: sector out of range")

// Image is a random-access sector store. Raw and COW images implement it,
// and dev.BlockBackend is satisfied by any Image.
type Image interface {
	ReadSector(lba uint64, buf []byte) error
	WriteSector(lba uint64, buf []byte) error
	Sectors() uint64
}

// extentSectors is the number of sectors in an extent, the unit in which an
// image allocates host memory: 8 sectors, 4 KiB.
const extentSectors = 8

// extent is one 4 KiB run of sectors and the mask of those written. Its
// array exists only once a non-zero byte has been written into the extent;
// until then every present sector reads as zeros, and so does every sector
// not present. present counts toward Allocated; data is the host memory.
type extent struct {
	present uint8
	data    *[extentSectors * SectorSize]byte
}

// zeros is what a present sector of an extent with no array reads as. It is
// shared and read-only: callers copy out of it and never write it.
var zeros [SectorSize]byte

// isZero reports whether the sector bytes in buf (at most SectorSize) are
// all zero.
func isZero(buf []byte) bool { return mem.IsZeroPage(buf[:min(len(buf), SectorSize)]) }

// sectorStore holds the sectors an image has written, an extent at a time,
// so a run of written sectors costs at most one allocation and one map entry
// per 8 sectors, and a run of zero sectors only the map entry. Its zero value
// is empty.
type sectorStore struct {
	extents map[uint64]extent
	n       uint64 // written sectors
}

// sector returns lba's bytes, or nil if lba was never written. A written
// sector of an extent with no array returns zeros, never nil: a COW layer
// reads nil as "fall through to the backing".
func (s *sectorStore) sector(lba uint64) []byte {
	e := s.extents[lba/extentSectors]
	if e.present&(1<<(lba%extentSectors)) == 0 {
		return nil
	}
	if e.data == nil {
		return zeros[:]
	}
	off := lba % extentSectors * SectorSize
	return e.data[off : off+SectorSize]
}

// write copies buf over lba's bytes (those of a fresh sector are zero) and
// reports whether it made the sector present. The extent gets its array on
// the first non-zero byte written into it; one that has an array keeps it
// and takes zeros in place, as mem.Pool.WriteAt does.
func (s *sectorStore) write(lba uint64, buf []byte) (fresh bool) {
	k, bit := lba/extentSectors, uint8(1)<<(lba%extentSectors)
	e := s.extents[k]
	fresh = e.present&bit == 0
	grow := e.data == nil && !isZero(buf)
	if fresh || grow {
		if s.extents == nil {
			s.extents = make(map[uint64]extent)
		}
		if grow {
			e.data = new([extentSectors * SectorSize]byte)
		}
		if fresh {
			e.present |= bit
			s.n++
		}
		s.extents[k] = e
	}
	if e.data != nil {
		off := lba % extentSectors * SectorSize
		copy(e.data[off:off+SectorSize], buf)
	}
	return fresh
}

// Raw is a flat in-memory image. Sectors are allocated lazily, an extent at
// a time, so a large empty or zero-written disk costs nothing; unwritten
// sectors read as zeros.
type Raw struct {
	sectors uint64
	store   sectorStore

	// Stats.
	Reads, Writes uint64
}

// NewRaw creates a raw image with the given capacity.
func NewRaw(sectors uint64) *Raw {
	return &Raw{sectors: sectors}
}

// Sectors implements Image.
func (r *Raw) Sectors() uint64 { return r.sectors }

// ReadSector implements Image.
func (r *Raw) ReadSector(lba uint64, buf []byte) error {
	if lba >= r.sectors {
		return fmt.Errorf("%w: lba %d of %d", ErrOutOfRange, lba, r.sectors)
	}
	r.Reads++
	if s := r.store.sector(lba); s != nil {
		copy(buf, s)
		return nil
	}
	clear(buf[:min(len(buf), SectorSize)])
	return nil
}

// WriteSector implements Image.
func (r *Raw) WriteSector(lba uint64, buf []byte) error {
	if lba >= r.sectors {
		return fmt.Errorf("%w: lba %d of %d", ErrOutOfRange, lba, r.sectors)
	}
	r.Writes++
	r.store.write(lba, buf)
	return nil
}

// Allocated returns the number of written sectors. It counts sectors, not
// host memory: an extent written only with zeros holds none.
func (r *Raw) Allocated() uint64 { return r.store.n }

// COW is a copy-on-write image layered over a backing image. Reads fall
// through the chain to the deepest layer that has the sector; the first
// write to a sector copies it up into this layer (read-modify-write against
// the backing chain is unnecessary because writes are whole sectors).
//
// Snapshot chains are built by stacking COW layers: each Snapshot call
// freezes the current layer and returns a fresh writable top.
type COW struct {
	backing Image
	delta   sectorStore
	sectors uint64
	frozen  bool

	// Stats for F15.
	Reads, Writes, CopyUps, ChainReads uint64
}

// NewCOW creates a writable COW layer over backing.
func NewCOW(backing Image) *COW {
	return &COW{backing: backing, sectors: backing.Sectors()}
}

// Sectors implements Image.
func (c *COW) Sectors() uint64 { return c.sectors }

// Backing returns the image this layer falls through to.
func (c *COW) Backing() Image { return c.backing }

// Depth returns the number of COW layers in the chain including this one.
func (c *COW) Depth() int {
	d := 1
	b := c.backing
	for {
		cow, ok := b.(*COW)
		if !ok {
			return d
		}
		d++
		b = cow.backing
	}
}

// ReadSector implements Image.
func (c *COW) ReadSector(lba uint64, buf []byte) error {
	if lba >= c.sectors {
		return fmt.Errorf("%w: lba %d of %d", ErrOutOfRange, lba, c.sectors)
	}
	c.Reads++
	if s := c.delta.sector(lba); s != nil {
		copy(buf, s)
		return nil
	}
	c.ChainReads++
	return c.backing.ReadSector(lba, buf)
}

// WriteSector implements Image.
func (c *COW) WriteSector(lba uint64, buf []byte) error {
	if c.frozen {
		return errors.New("storage: write to frozen snapshot layer")
	}
	if lba >= c.sectors {
		return fmt.Errorf("%w: lba %d of %d", ErrOutOfRange, lba, c.sectors)
	}
	c.Writes++
	if c.delta.write(lba, buf) {
		c.CopyUps++
	}
	return nil
}

// Allocated returns the number of sectors written to this layer only (each
// shadows the backing). Like Raw.Allocated, it counts sectors, not host
// memory.
func (c *COW) Allocated() uint64 { return c.delta.n }

// Snapshot freezes this layer and returns a new writable layer on top.
// The frozen layer keeps serving reads for sectors the new layer lacks.
func (c *COW) Snapshot() *COW {
	c.frozen = true
	return NewCOW(c)
}

// Clone returns an independent writable layer over the same (now frozen)
// base — the instant-provisioning path of experiment T14: both clones share
// every untouched sector.
func (c *COW) Clone() *COW {
	c.frozen = true
	return NewCOW(c)
}

// Flatten copies every live sector into a new Raw image (snapshot
// consolidation), collapsing the chain.
func (c *COW) Flatten() (*Raw, error) {
	out := NewRaw(c.sectors)
	buf := make([]byte, SectorSize)
	for lba := uint64(0); lba < c.sectors; lba++ {
		if err := c.ReadSector(lba, buf); err != nil {
			return nil, err
		}
		if isZero(buf) {
			continue
		}
		if err := out.WriteSector(lba, buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}
