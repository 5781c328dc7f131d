package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func sector(fill byte) []byte {
	s := make([]byte, SectorSize)
	for i := range s {
		s[i] = fill
	}
	return s
}

func TestRawReadWrite(t *testing.T) {
	r := NewRaw(16)
	if r.Sectors() != 16 {
		t.Fatal("capacity")
	}
	buf := make([]byte, SectorSize)
	if err := r.ReadSector(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sector(0)) {
		t.Fatal("unwritten sector should be zero")
	}
	if err := r.WriteSector(3, sector(0xAB)); err != nil {
		t.Fatal(err)
	}
	r.ReadSector(3, buf)
	if !bytes.Equal(buf, sector(0xAB)) {
		t.Fatal("round trip")
	}
	if r.Allocated() != 1 {
		t.Fatalf("allocated = %d", r.Allocated())
	}
}

func TestRawOutOfRange(t *testing.T) {
	r := NewRaw(4)
	if err := r.ReadSector(4, make([]byte, SectorSize)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := r.WriteSector(9, sector(1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestCOWFallsThroughToBacking(t *testing.T) {
	base := NewRaw(8)
	base.WriteSector(2, sector(0x11))
	c := NewCOW(base)
	buf := make([]byte, SectorSize)
	if err := c.ReadSector(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sector(0x11)) {
		t.Fatal("fall-through read")
	}
	if c.ChainReads != 1 {
		t.Fatalf("chain reads = %d", c.ChainReads)
	}
}

func TestCOWWriteShadowsBacking(t *testing.T) {
	base := NewRaw(8)
	base.WriteSector(2, sector(0x11))
	c := NewCOW(base)
	c.WriteSector(2, sector(0x22))
	buf := make([]byte, SectorSize)
	c.ReadSector(2, buf)
	if !bytes.Equal(buf, sector(0x22)) {
		t.Fatal("layer read")
	}
	base.ReadSector(2, buf)
	if !bytes.Equal(buf, sector(0x11)) {
		t.Fatal("backing must be untouched")
	}
	if c.CopyUps != 1 {
		t.Fatalf("copyups = %d", c.CopyUps)
	}
	// Second write to the same sector: no new copy-up.
	c.WriteSector(2, sector(0x33))
	if c.CopyUps != 1 {
		t.Fatalf("copyups after rewrite = %d", c.CopyUps)
	}
}

func TestSnapshotChainDepthAndFreeze(t *testing.T) {
	base := NewRaw(8)
	l1 := NewCOW(base)
	l1.WriteSector(0, sector(1))
	l2 := l1.Snapshot()
	if l1.Depth() != 1 || l2.Depth() != 2 {
		t.Fatalf("depths %d %d", l1.Depth(), l2.Depth())
	}
	// Frozen layer rejects writes.
	if err := l1.WriteSector(0, sector(9)); err == nil {
		t.Fatal("frozen layer accepted write")
	}
	// New layer sees old content until overwritten.
	buf := make([]byte, SectorSize)
	l2.ReadSector(0, buf)
	if !bytes.Equal(buf, sector(1)) {
		t.Fatal("snapshot content")
	}
	l2.WriteSector(0, sector(2))
	l2.ReadSector(0, buf)
	if !bytes.Equal(buf, sector(2)) {
		t.Fatal("top layer content")
	}
}

func TestCloneSharesUntouchedSectors(t *testing.T) {
	base := NewRaw(8)
	gold := NewCOW(base)
	gold.WriteSector(1, sector(0xAA))
	a := gold.Clone()
	b := gold.Clone()
	a.WriteSector(1, sector(0x01))
	buf := make([]byte, SectorSize)
	b.ReadSector(1, buf)
	if !bytes.Equal(buf, sector(0xAA)) {
		t.Fatal("clone b must see gold content")
	}
	if a.Allocated() != 1 || b.Allocated() != 0 {
		t.Fatalf("allocations a=%d b=%d", a.Allocated(), b.Allocated())
	}
}

func TestFlattenCollapsesChain(t *testing.T) {
	base := NewRaw(8)
	base.WriteSector(0, sector(1))
	l1 := NewCOW(base)
	l1.WriteSector(1, sector(2))
	l2 := l1.Snapshot()
	l2.WriteSector(2, sector(3))
	flat, err := l2.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, SectorSize)
	for i, want := range []byte{1, 2, 3} {
		flat.ReadSector(uint64(i), buf)
		if !bytes.Equal(buf, sector(want)) {
			t.Fatalf("sector %d", i)
		}
	}
	if flat.Allocated() != 3 {
		t.Fatalf("allocated = %d", flat.Allocated())
	}
}

// Property: a COW chain behaves exactly like a flat disk for any write set.
func TestCOWChainEquivalenceProperty(t *testing.T) {
	f := func(ops []struct {
		LBA  uint8
		Fill byte
		Snap bool
	}) bool {
		ref := NewRaw(32)
		var c Image = NewCOW(NewRaw(32))
		for _, op := range ops {
			lba := uint64(op.LBA % 32)
			if op.Snap {
				c = c.(*COW).Snapshot()
			}
			if err := ref.WriteSector(lba, sector(op.Fill)); err != nil {
				return false
			}
			if err := c.WriteSector(lba, sector(op.Fill)); err != nil {
				return false
			}
		}
		want := make([]byte, SectorSize)
		got := make([]byte, SectorSize)
		for lba := uint64(0); lba < 32; lba++ {
			ref.ReadSector(lba, want)
			c.ReadSector(lba, got)
			if !bytes.Equal(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroSectorWritesHoldNoMemory: zero sectors written into a Raw image,
// and into a COW layer over a non-zero backing, are present — they count in
// Allocated and CopyUps and shadow the backing, so they read as zeros, not
// as the backing's bytes — but no extent holds an array, and rewriting them
// allocates nothing.
func TestZeroSectorWritesHoldNoMemory(t *testing.T) {
	const n = 4096
	base := NewRaw(n)
	for lba := uint64(0); lba < n; lba++ {
		base.WriteSector(lba, sector(0x5A))
	}
	raw, cow := NewRaw(n), NewCOW(base)
	zero := sector(0)
	for _, img := range []struct {
		name  string
		image Image
		store *sectorStore
	}{{"raw", raw, &raw.store}, {"cow", cow, &cow.delta}} {
		for lba := uint64(0); lba < n; lba++ {
			if err := img.image.WriteSector(lba, zero); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, SectorSize)
		for lba := uint64(0); lba < n; lba++ {
			copy(buf, sector(0xEE))
			if err := img.image.ReadSector(lba, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, zero) {
				t.Fatalf("%s lba %d: read %x..., want zeros", img.name, lba, buf[:8])
			}
		}
		arrays := 0
		for _, e := range img.store.extents {
			if e.data != nil {
				arrays++
			}
		}
		if arrays != 0 {
			t.Errorf("%s: %d of %d extents hold an array after zero writes", img.name, arrays, len(img.store.extents))
		}
		lba := uint64(0)
		if a := testing.AllocsPerRun(100, func() {
			img.image.WriteSector(lba, zero)
			lba = (lba + 1) % n
		}); a != 0 {
			t.Errorf("%s: a zero rewrite allocates %v times", img.name, a)
		}
	}
	if raw.Allocated() != n {
		t.Errorf("raw: Allocated %d, want %d", raw.Allocated(), n)
	}
	if cow.Allocated() != n || cow.CopyUps != n || cow.ChainReads != 0 {
		t.Errorf("cow: Allocated %d CopyUps %d ChainReads %d, want %d, %d, 0", cow.Allocated(), cow.CopyUps, cow.ChainReads, n, n)
	}
}
