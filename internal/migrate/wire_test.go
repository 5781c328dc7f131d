package migrate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// refRun, refEncodeRuns and refWritePages are the page encoder the wire
// format was defined by — every run materialised in a slice, then cut into
// frames — kept as the oracle writePages must match byte for byte.
type refRun struct {
	Start uint64
	Count uint32
	Zero  bool
	Data  []byte
}

func refEncodeRuns(runs []refRun) []byte {
	var b []byte
	for _, r := range runs {
		b = binary.LittleEndian.AppendUint64(b, r.Start)
		b = binary.LittleEndian.AppendUint32(b, r.Count)
		zero := byte(0)
		if r.Zero {
			zero = 1
		}
		b = append(append(b, zero), r.Data...)
	}
	return b
}

func refWritePages(conn *wireConn, gfns []uint64, read func(uint64, []byte)) error {
	var runs []refRun
	buf := make([]byte, isa.PageSize)
	for _, gfn := range gfns {
		read(gfn, buf)
		zero := mem.IsZeroPage(buf)
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if last.Zero == zero && last.Start+uint64(last.Count) == gfn &&
				(zero || last.Count < framePageCap) && last.Count < maxRunPages {
				last.Count++
				if !zero {
					last.Data = append(last.Data, buf...)
				}
				continue
			}
		}
		r := refRun{Start: gfn, Count: 1, Zero: zero}
		if !zero {
			r.Data = append([]byte(nil), buf...)
		}
		runs = append(runs, r)
	}
	start, dataPages := 0, 0
	for i, r := range runs {
		pages := 0
		if !r.Zero {
			pages = int(r.Count)
		}
		if i > start && (dataPages+pages > framePageCap || i-start >= 1024) {
			if err := conn.writeFrame(ftPages, refEncodeRuns(runs[start:i])); err != nil {
				return err
			}
			start, dataPages = i, 0
		}
		dataPages += pages
	}
	if start < len(runs) {
		return conn.writeFrame(ftPages, refEncodeRuns(runs[start:]))
	}
	return nil
}

// bufConn collects a wireConn's writes.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error { return nil }

// patternRead fills each page with content unique to its gfn, or with
// zeros where zero says so.
func patternRead(zero func(gfn uint64) bool) func(uint64, []byte) {
	return func(gfn uint64, buf []byte) {
		clear(buf)
		if !zero(gfn) {
			binary.LittleEndian.PutUint64(buf[gfn%(isa.PageSize/8)*8:], gfn|1<<63)
			buf[len(buf)-1] = byte(gfn) | 1
		}
	}
}

// requireSameFraming encodes gfns with writePages and with the reference
// encoder and requires the same stream and the same number of frames.
func requireSameFraming(t *testing.T, gfns []uint64, zero func(uint64) bool) {
	t.Helper()
	read := patternRead(zero)
	var got, want bufConn
	gw, ww := newWireConn(&got), newWireConn(&want)
	if err := writePages(gw, gfns, read); err != nil {
		t.Fatal(err)
	}
	if err := refWritePages(ww, gfns, read); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || gw.wseq != ww.wseq {
		t.Fatalf("%d gfns: writePages sent %d bytes in %d frames, reference %d bytes in %d frames",
			len(gfns), got.Len(), gw.wseq, want.Len(), ww.wseq)
	}
	r := newWireConn(&got)
	for n := uint64(0); n < gw.wseq; n++ {
		if ft, _, err := r.readFrame(); err != nil || ft != ftPages {
			t.Fatalf("frame %d reads back as %v: %v", n, ft, err)
		}
	}
}

func gfnRange(lo, hi, step uint64) []uint64 {
	var gfns []uint64
	for g := lo; g < hi; g += step {
		gfns = append(gfns, g)
	}
	return gfns
}

// TestPageFramingMatchesReference: the streaming encoder cuts runs and
// frames exactly where the reference does, including a run that closes
// past the frame's data cap and has to move to the next frame.
func TestPageFramingMatchesReference(t *testing.T) {
	none := func(uint64) bool { return false }
	all := func(uint64) bool { return true }
	cases := []struct {
		name string
		gfns []uint64
		zero func(uint64) bool
	}{
		{"empty", nil, none},
		{"data run of exactly 128", gfnRange(0, 128, 1), none},
		{"data run of 129", gfnRange(0, 129, 1), none},
		// 100 data, 1 zero, 100 data: the last run closes at the end of the
		// list and no longer fits beside the first.
		{"moved run", gfnRange(0, 201, 1), func(g uint64) bool { return g == 100 }},
		// The 128-page run closes when gfn 229 is already read behind it,
		// and both move.
		{"moved run with a page behind", gfnRange(0, 300, 1), func(g uint64) bool { return g == 100 }},
		{"1100 zero runs", gfnRange(0, 2200, 2), all},
		{"zero runs then data", append(gfnRange(0, 2100, 2), gfnRange(2100, 2400, 1)...),
			func(g uint64) bool { return g < 2100 }},
		{"long zero run", gfnRange(0, 3000, 1), func(g uint64) bool { return g < 2900 }},
		{"alternating zero and data", gfnRange(0, 600, 1), func(g uint64) bool { return g%2 == 0 }},
		{"gaps", gfnRange(3, 2000, 3), func(g uint64) bool { return g%4 == 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireSameFraming(t, c.gfns, c.zero) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		gfns, zero := randomPages(rng)
		requireSameFraming(t, gfns, zero)
	}
}

// randomPages draws a sorted gfn list with gaps and a zero pattern that
// comes in stretches, so runs of every length occur.
func randomPages(rng *rand.Rand) ([]uint64, func(uint64) bool) {
	var gfns []uint64
	var zero []bool
	z := false
	for g, n := uint64(0), 1+rng.Intn(1500); len(gfns) < n; g++ {
		if rng.Intn(8) == 0 {
			z = !z
		}
		zero = append(zero, z)
		if rng.Intn(6) != 0 {
			gfns = append(gfns, g)
		}
	}
	return gfns, func(g uint64) bool { return zero[g] }
}

// fuzzPages turns fuzz bytes into a gfn list and zero pattern: each byte
// adds 1–64 pages (bits 2–7) of one zero-ness (bit 0), after skipping a gfn
// when bit 1 is set.
func fuzzPages(data []byte) ([]uint64, func(uint64) bool) {
	var gfns []uint64
	var zero []bool
	for _, c := range data {
		if c&2 != 0 {
			zero = append(zero, false)
		}
		for n := 1 + int(c>>2); n > 0 && len(gfns) < 4096; n-- {
			gfns = append(gfns, uint64(len(zero)))
			zero = append(zero, c&1 != 0)
		}
	}
	return gfns, func(g uint64) bool { return zero[g] }
}

// FuzzPageFraming: for any gfn list and zero pattern, writePages and the
// reference encoder send the same bytes in the same frames. The corpus in
// testdata holds a 128-page run and one page more, a moved run (100 data,
// 1 zero, 199 data), 1100 one-page zero runs and 600 alternating pages.
func FuzzPageFraming(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		gfns, zero := fuzzPages(data)
		requireSameFraming(t, gfns, zero)
	})
}

// withHeaderByte returns a copy of stream whose first frame has header
// byte i set to v under a recomputed CRC, so only the header checks can
// reject it.
func withHeaderByte(stream []byte, i int, v byte) []byte {
	out := append([]byte(nil), stream...)
	out[i] = v
	end := headerSize + int(binary.LittleEndian.Uint32(out[16:]))
	binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[:end]))
	return out
}

// TestReadFrameRejectsHeaderFlags: the flags and reserved bytes must be
// zero; a frame carrying anything there is malformed even under a valid
// CRC.
func TestReadFrameRejectsHeaderFlags(t *testing.T) {
	seed := seedFrames()
	for i := 5; i <= 7; i++ {
		w := newWireConn(&fuzzConn{bytes.NewReader(withHeaderByte(seed, i, 1))})
		if _, _, err := w.readFrame(); err == nil {
			t.Errorf("frame with header byte %d set was accepted", i)
		}
	}
	w := newWireConn(&fuzzConn{bytes.NewReader(withHeaderByte(seed, 5, 0))})
	if _, _, err := w.readFrame(); err != nil {
		t.Fatalf("re-checksummed clean frame rejected: %v", err)
	}
}

// TestWritePagesAllocatesNothing: once the write buffer has grown to a
// round's largest frame, sending a round allocates nothing.
func TestWritePagesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newWireConn(&fuzzConn{bytes.NewReader(nil)})
	var gfns []uint64
	for g := uint64(0); len(gfns) < 512; g++ {
		if g%5 != 3 {
			gfns = append(gfns, g)
		}
	}
	read := patternRead(func(g uint64) bool { return g%7 < 2 || g/64%3 == 0 })
	round := func() {
		if err := writePages(w, gfns, read); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("a 512-page round allocates %v times, want 0", n)
	}
}

// TestReadApplyPagesAllocatesNothing: receiving an ftPages frame and
// landing it in a destination whose frames are populated allocates
// nothing — the payload is applied straight from the read buffer.
func TestReadApplyPagesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dst, err := core.NewVM(mem.NewPool(frames), core.Config{Name: "dst", Mode: core.ModeHW, MemBytes: vmRAM})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(nil, dst, DefaultStreamOptions())
	var out bufConn
	wc := newWireConn(&out)
	// 128 data pages between 128 zero ones: one full frame of 256 runs.
	if err := writePages(wc, gfnRange(0, 256, 1), patternRead(func(g uint64) bool { return g%2 == 0 })); err != nil {
		t.Fatal(err)
	}
	if wc.wseq != 1 {
		t.Fatalf("encoded %d frames, want 1", wc.wseq)
	}
	frame := out.Bytes()
	r := bytes.NewReader(frame)
	rc := newWireConn(&fuzzConn{r})
	apply := func() {
		r.Reset(frame)
		rc.rseq = 0
		ft, p, err := rc.readFrame()
		if err != nil || ft != ftPages {
			t.Fatalf("read %v frame: %v", ft, err)
		}
		if err := s.applyRuns(p); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	if n := testing.AllocsPerRun(20, apply); n != 0 {
		t.Fatalf("reading and applying a page frame allocates %v times, want 0", n)
	}
	buf := make([]byte, isa.PageSize)
	dst.Mem.ReadRaw(255, buf)
	if binary.LittleEndian.Uint64(buf[255*8:]) != 255|1<<63 {
		t.Fatalf("gfn 255 did not land")
	}
}
