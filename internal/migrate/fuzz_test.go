package migrate

import (
	"bytes"
	"io"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
)

// fuzzConn feeds a fixed byte slice to readFrame and discards writes.
type fuzzConn struct{ r *bytes.Reader }

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *fuzzConn) Close() error                { return nil }

// fuzzNPages sizes decodeCommit's bitmap check: the 2 MiB test VMs have
// 512 guest pages, and the seeds below are built against the same figure.
const fuzzNPages = 512

// seedFrames builds one valid frame of every type, in sequence, as one
// stream — the happy path every mutation starts from.
func seedFrames() []byte {
	var out []byte
	var seq uint64
	add := func(ft frameType, payload []byte) {
		var buf bytes.Buffer
		w := newWireConn(struct {
			io.Reader
			io.Writer
			io.Closer
		}{nil, &buf, io.NopCloser(nil)})
		w.wseq = seq
		if err := w.writeFrame(ft, payload); err != nil {
			panic(err)
		}
		seq++
		out = append(out, buf.Bytes()...)
	}
	page := make([]byte, isa.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	var arch core.ArchState
	arch.PC = 0x1000
	arch.Priv = 1
	arch.X[2] = 0xFFF0
	arch.CSR.Satp = 1<<63 | 42
	present := newBitmap(fuzzNPages)
	bitmapSet(present, 0)
	bitmapSet(present, 511)
	add(ftHello, encodeHello(helloMsg{NPages: fuzzNPages, Mode: PreCopy}))
	add(ftWelcome, encodeWelcome(welcomeMsg{AckedRounds: 3, Committed: false}))
	add(ftPages, refEncodeRuns([]refRun{
		{Start: 0, Count: 4, Zero: true},
		{Start: 4, Count: 1, Data: page},
	}))
	add(ftRoundEnd, encodeRoundEnd(roundEndMsg{Round: 2, Pages: 5}))
	add(ftRoundAck, encodeU64(2))
	add(ftArch, arch.Append(nil))
	add(ftCommit, encodeCommit(commitMsg{Downtime: 819, Mode: PostCopy, Present: present}))
	add(ftCommitAck, nil)
	add(ftPull, encodeU64(17))
	add(ftPage, appendPage(nil, pageMsg{GFN: 17, Have: true, Data: page}))
	add(ftPullChunk, encodeU64(8))
	add(ftChunkDone, encodeChunkDone(chunkDoneMsg{Pushed: 8, Done: true}))
	return out
}

// FuzzMigrationStream: the wire decoders must be total — an arbitrary byte
// stream either parses as frames whose payloads decode, or fails with an
// error; never a panic, never an unbounded allocation. Every payload that
// does decode must re-encode and re-decode to the same value, so a
// destination's view of a frame is exactly what a re-sending source would
// put back on the wire (the resume path depends on this).
func FuzzMigrationStream(f *testing.F) {
	seed := seedFrames()
	f.Add(seed)
	// A bit flip in the payload of the first frame: the CRC must catch it.
	flipped := append([]byte(nil), seed...)
	flipped[headerSize+3] ^= 0x10
	f.Add(flipped)
	f.Add(seed[:len(seed)-5]) // truncated mid-frame
	f.Add(seed[7:])           // desynchronized start
	// Flags set under a valid CRC: only the header check rejects it.
	f.Add(withHeaderByte(seed, 5, 0x80))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWireConn(&fuzzConn{bytes.NewReader(data)})
		for {
			ft, p, err := w.readFrame()
			if err != nil {
				return // framing rejected the rest of the stream
			}
			checkPayload(t, ft, p)
		}
	})
}

// checkPayload decodes one frame payload and, on success, proves the
// encode∘decode round trip is the identity.
func checkPayload(t *testing.T, ft frameType, p []byte) {
	t.Helper()
	reject := func(again []byte, err error) {
		if err != nil {
			t.Fatalf("%v re-decode failed after round trip: %v", ft, err)
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("%v round trip changed payload:\n in %x\nout %x", ft, p, again)
		}
	}
	switch ft {
	case ftHello:
		if m, err := decodeHello(p); err == nil {
			reject(encodeHello(m), nil)
		}
	case ftWelcome:
		if m, err := decodeWelcome(p); err == nil {
			reject(encodeWelcome(m), nil)
		}
	case ftPages:
		var runs []refRun
		if forRuns(p, func(start uint64, count uint32, data []byte) error {
			runs = append(runs, refRun{Start: start, Count: count, Zero: data == nil, Data: data})
			return nil
		}) == nil {
			reject(refEncodeRuns(runs), nil)
		}
	case ftRoundEnd:
		if m, err := decodeRoundEnd(p); err == nil {
			reject(encodeRoundEnd(m), nil)
		}
	case ftRoundAck, ftPull, ftPullChunk:
		if v, err := decodeU64(p, ft.String()); err == nil {
			reject(encodeU64(v), nil)
		}
	case ftArch:
		if a, err := core.DecodeArchState(p); err == nil {
			reject(a.Append(nil), nil)
		}
	case ftCommit:
		if m, err := decodeCommit(p, fuzzNPages); err == nil {
			reject(encodeCommit(m), nil)
		}
	case ftCommitAck:
		// No payload; nothing to decode.
	case ftPage:
		if m, err := decodePage(p); err == nil {
			reject(appendPage(nil, m), nil)
		}
	case ftChunkDone:
		if m, err := decodeChunkDone(p); err == nil {
			reject(encodeChunkDone(m), nil)
		}
	default:
		// Unknown frame type: framing accepted it (CRC was valid), the
		// protocol layer would reject it — that is expectFrame's job.
	}
}

// TestSeedFramesParse keeps the checked-in corpus honest: the seed stream
// must parse end-to-end with every payload decoding.
func TestSeedFramesParse(t *testing.T) {
	data := seedFrames()
	w := newWireConn(&fuzzConn{bytes.NewReader(data)})
	var n int
	for {
		ft, p, err := w.readFrame()
		if err != nil {
			break
		}
		checkPayload(t, ft, p)
		n++
	}
	if n != 12 {
		t.Fatalf("seed stream parsed %d frames, want 12", n)
	}
}
