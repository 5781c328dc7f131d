package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzSectorStore runs random reads and writes over a Raw image and over a
// COW chain of up to three layers above a Raw base, with snapshots, clones
// and flattens between them, against an oracle that keeps every layer's
// sectors in a map: each read returns the bytes of the nearest layer that
// wrote the sector (zeros if none), a short write keeps the rest of the
// sector, and every layer's Allocated and CopyUps count the sectors written
// to it. The oracle also holds the store to the zero rule: an extent has an
// array exactly when a non-zero byte was ever written into it (pattern(0, …)
// writes zero sectors, which stay present and shadow the backing).
//
// Input: 3-byte records {op, lba, arg}. The op's low three bits pick the
// operation and bit 3 makes a write short; lba runs past the end of the
// 40-sector images (5 extents); arg patterns the bytes.
func FuzzSectorStore(f *testing.F) {
	f.Add([]byte{0, 3, 7, 1, 3, 0, 2, 9, 5, 3, 9, 0, 4, 0, 0, 2, 9, 6, 3, 9, 0, 5, 0, 0})
	f.Add([]byte{8, 7, 200, 0, 8, 1, 1, 7, 0, 6, 7, 0, 0, 45, 3, 1, 45, 0})
	f.Add([]byte{2, 1, 1, 4, 0, 0, 10, 1, 3, 7, 0, 0, 2, 2, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0, 5, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 13, 5, 3, 21, 0, 4, 0, 0}, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		const sectors = 40
		pattern := func(arg byte, n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(int(arg) * (i + 1))
			}
			return b
		}
		raw, rawWant := NewRaw(sectors), newModel()
		base, baseWant := NewRaw(sectors), newModel()
		for lba := uint64(0); lba < sectors; lba += 3 {
			buf := pattern(byte(lba+1), SectorSize)
			base.WriteSector(lba, buf)
			baseWant.apply(lba, buf)
		}
		layers := []*COW{NewCOW(base)}
		layerWant := []model{newModel()}
		top := func() *COW { return layers[len(layers)-1] }
		// resolve is what the chain reads at lba.
		resolve := func(lba uint64) []byte {
			for i := len(layerWant) - 1; i >= 0; i-- {
				if s, ok := layerWant[i].sectors[lba]; ok {
					return s
				}
			}
			if s, ok := baseWant.sectors[lba]; ok {
				return s
			}
			return make([]byte, SectorSize)
		}
		check := func(what string, err error, lba uint64, got, want []byte) {
			t.Helper()
			if lba >= sectors {
				if !errors.Is(err, ErrOutOfRange) {
					t.Fatalf("%s lba %d of %d: err %v, want ErrOutOfRange", what, lba, sectors, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s lba %d: %v", what, lba, err)
			}
			if got != nil && !bytes.Equal(got, want) {
				t.Fatalf("%s lba %d: got %x\nwant %x", what, lba, got, want)
			}
		}

		for ; len(data) >= 3; data = data[3:] {
			op, lba, arg := data[0], uint64(data[1]%48), data[2]
			buf := pattern(arg, SectorSize)
			if op&8 != 0 {
				buf = buf[:1+int(arg)%SectorSize]
			}
			switch op & 7 {
			case 0: // Raw write
				err := raw.WriteSector(lba, buf)
				check("raw write", err, lba, nil, nil)
				if lba < sectors {
					rawWant.apply(lba, buf)
				}
			case 1: // Raw read
				got := pattern(0xEE, SectorSize)
				err := raw.ReadSector(lba, got)
				want := rawWant.sectors[lba]
				if want == nil {
					want = make([]byte, SectorSize)
				}
				check("raw read", err, lba, got, want)
			case 2: // COW write
				err := top().WriteSector(lba, buf)
				check("cow write", err, lba, nil, nil)
				if lba < sectors {
					layerWant[len(layerWant)-1].apply(lba, buf)
				}
			case 3: // COW read: a sector the top lacks falls through
				c := top()
				reads, chain := c.Reads, c.ChainReads
				got := pattern(0xEE, SectorSize)
				err := c.ReadSector(lba, got)
				want := resolve(lba)
				check("cow read", err, lba, got, want)
				if lba < sectors {
					_, held := layerWant[len(layerWant)-1].sectors[lba]
					if c.Reads != reads+1 || (c.ChainReads == chain) != held {
						t.Fatalf("cow read lba %d: Reads +%d ChainReads +%d, top holds it: %v",
							lba, c.Reads-reads, c.ChainReads-chain, held)
					}
				}
			case 4, 7: // Snapshot or Clone; at full depth, a frozen layer refuses writes
				if len(layers) == 3 {
					if err := layers[0].WriteSector(lba%sectors, buf); err == nil {
						t.Fatalf("write to a frozen layer succeeded")
					}
					break
				}
				next := top().Snapshot()
				if op&7 == 7 {
					next = top().Clone()
				}
				layers = append(layers, next)
				layerWant = append(layerWant, newModel())
			case 5: // Flatten
				flat, err := top().Flatten()
				if err != nil {
					t.Fatalf("flatten: %v", err)
				}
				zero := make([]byte, SectorSize)
				flatWant := newModel()
				got := make([]byte, SectorSize)
				for l := uint64(0); l < sectors; l++ {
					want := resolve(l)
					if !bytes.Equal(want, zero) {
						flatWant.apply(l, want)
					}
					flat.ReadSector(l, got)
					check("flat read", nil, l, got, want)
				}
				if flat.Allocated() != uint64(len(flatWant.sectors)) {
					t.Fatalf("flattened image allocated %d sectors, %d are non-zero", flat.Allocated(), len(flatWant.sectors))
				}
				flatWant.checkArrays(t, "flattened image", &flat.store)
			case 6: // Raw read into a short or long buffer: only the sector's bytes move
				n := 1 + int(arg)*3
				got := pattern(0xEE, n)
				err := raw.ReadSector(lba, got)
				want := pattern(0xEE, n)
				if s, ok := rawWant.sectors[lba]; ok {
					copy(want, s)
				} else {
					clear(want[:min(n, SectorSize)])
				}
				check("raw read (sized buffer)", err, lba, got, want)
			}

			if raw.Allocated() != uint64(len(rawWant.sectors)) {
				t.Fatalf("raw allocated %d sectors, %d written", raw.Allocated(), len(rawWant.sectors))
			}
			if base.Allocated() != uint64(len(baseWant.sectors)) {
				t.Fatalf("base allocated %d sectors, %d written", base.Allocated(), len(baseWant.sectors))
			}
			rawWant.checkArrays(t, "raw", &raw.store)
			baseWant.checkArrays(t, "base", &base.store)
			for i, c := range layers {
				if n := uint64(len(layerWant[i].sectors)); c.Allocated() != n || c.CopyUps != n {
					t.Fatalf("layer %d: Allocated %d CopyUps %d, %d sectors written", i, c.Allocated(), c.CopyUps, n)
				}
				layerWant[i].checkArrays(t, fmt.Sprintf("layer %d", i), &c.delta)
			}
		}
	})
}

// model is the fuzz oracle's view of one sector store: the bytes of every
// written sector, and the extents a non-zero byte was ever written into.
type model struct {
	sectors map[uint64][]byte
	inked   map[uint64]bool
}

func newModel() model { return model{sectors: map[uint64][]byte{}, inked: map[uint64]bool{}} }

// apply is the oracle's write: a fresh sector is zeros, then buf is copied
// over its head.
func (m model) apply(lba uint64, buf []byte) {
	s, ok := m.sectors[lba]
	if !ok {
		s = make([]byte, SectorSize)
		m.sectors[lba] = s
	}
	copy(s, buf)
	if !bytes.Equal(buf[:min(len(buf), SectorSize)], make([]byte, min(len(buf), SectorSize))) {
		m.inked[lba/extentSectors] = true
	}
}

// checkArrays fails t unless exactly the inked extents of s hold an array.
func (m model) checkArrays(t *testing.T, what string, s *sectorStore) {
	t.Helper()
	for k, e := range s.extents {
		if (e.data != nil) != m.inked[k] {
			t.Fatalf("%s extent %d: holds an array %v, non-zero bytes written %v", what, k, e.data != nil, m.inked[k])
		}
	}
	for k := range m.inked {
		if _, ok := s.extents[k]; !ok {
			t.Fatalf("%s extent %d: non-zero bytes written, but the store has no extent", what, k)
		}
	}
}
