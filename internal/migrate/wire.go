package migrate

// The migration wire format. Every message is a frame:
//
//	u32 magic | u8 type | u8 flags | u16 reserved | u64 seq | u32 payloadLen
//	payload…
//	u32 CRC32-IEEE over header+payload
//
// Flags and reserved are zero; anything else there is a malformed frame,
// whatever its CRC says. Sequence numbers are per-connection per-direction
// and must increase by exactly one; the CRC catches in-flight corruption
// (faultnet's bit flips land here).
//
// Page content travels in ftPages frames as runs — u64 start gfn | u32
// count | u8 zero, then count pages of data unless zero — so all-zero
// pages cost 13 bytes instead of a page on the physical wire while the
// simulated cost model still charges the logical pageWireSize per page,
// so a Report does not depend on the encoding.
// writePages fixes the encoding: a run grows while the next gfn is
// contiguous and of the same zero-ness, up to framePageCap data pages or
// maxRunPages zero pages, and a frame is cut before a run that would take
// it past framePageCap data pages or maxFrameRuns runs.
//
// Buffer ownership: each wireConn owns a write buffer and a read buffer
// and keeps their capacity, so moving a page allocates nothing. A page is
// read from guest RAM straight into the write buffer that goes out as its
// frame. The payload readFrame returns aliases the read buffer and is valid
// only until the next readFrame on that conn: a consumer that keeps any of
// it copies it first (commit's present bitmap, core.DecodeArchState), applyRuns
// writes it into guest RAM at once, and the page a post-copy pull returns
// is read by the PageSource caller before the next pull.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

const (
	frameMagic   = 0x4D475631 // "MGV1"
	headerSize   = 20
	trailerSize  = 4       // CRC32
	maxPayload   = 2 << 20 // decode-side allocation cap
	maxRunPages  = 1 << 20 // sanity cap on one run's page count
	framePageCap = 128     // data pages per ftPages frame
	maxFrameRuns = 1024    // runs per ftPages frame
	runHdr       = 13      // u64 start | u32 count | u8 zero

	// pagesFrame is the largest legal ftPages frame: framePageCap data
	// pages and maxFrameRuns run headers, framed. A read buffer that
	// outgrows a page grows to hold it at once.
	pagesFrame = headerSize + maxFrameRuns*runHdr + framePageCap*isa.PageSize + trailerSize
)

// frameType tags one wire message.
type frameType uint8

const (
	ftHello     frameType = iota + 1 // src→dst: open/resume a session
	ftWelcome                        // dst→src: acked rounds + commit flag
	ftPages                          // src→dst: page runs
	ftRoundEnd                       // src→dst: round boundary
	ftRoundAck                       // dst→src: round durably applied
	ftArch                           // src→dst: architectural CPU state
	ftCommit                         // src→dst: switchover
	ftCommitAck                      // dst→src: destination adopted
	ftPull                           // dst→src: post-copy demand pull
	ftPage                           // src→dst: one pulled page
	ftPullChunk                      // dst→src: request a background push chunk
	ftChunkDone                      // src→dst: chunk complete (+pushed count)
)

// String names the frame type.
func (t frameType) String() string {
	switch t {
	case ftHello:
		return "hello"
	case ftWelcome:
		return "welcome"
	case ftPages:
		return "pages"
	case ftRoundEnd:
		return "round-end"
	case ftRoundAck:
		return "round-ack"
	case ftArch:
		return "arch"
	case ftCommit:
		return "commit"
	case ftCommitAck:
		return "commit-ack"
	case ftPull:
		return "pull"
	case ftPage:
		return "page"
	case ftPullChunk:
		return "pull-chunk"
	case ftChunkDone:
		return "chunk-done"
	}
	return fmt.Sprintf("frame?%d", uint8(t))
}

// wireConn frames an io.ReadWriteCloser with sequencing, CRCs, and
// physical byte accounting.
type wireConn struct {
	rw    io.ReadWriteCloser
	rseq  uint64
	wseq  uint64
	moved uint64 // physical bytes in both directions
	wbuf  []byte // the frame being built: see frame and sendFrame
	rhdr  [headerSize]byte
	rbuf  []byte // the last frame's payload and CRC
}

func newWireConn(rw io.ReadWriteCloser) *wireConn {
	return &wireConn{rw: rw, wbuf: make([]byte, headerSize, 64)}
}

func (w *wireConn) Close() error { return w.rw.Close() }

// frame returns the write buffer cut to an unfilled header. Append a
// payload to it and pass the result to sendFrame.
func (w *wireConn) frame() []byte { return w.wbuf[:headerSize] }

// writeFrame sends one frame.
func (w *wireConn) writeFrame(t frameType, payload []byte) error {
	return w.sendFrame(t, append(w.frame(), payload...))
}

// sendFrame fills in the header of b, a frame built on frame(), appends the
// CRC and sends the frame in one Write. b becomes the write buffer, so
// growth made while building it is kept.
func (w *wireConn) sendFrame(t frameType, b []byte) error {
	n := len(b) - headerSize
	if n > maxPayload {
		return fmt.Errorf("migrate: frame %v payload %d exceeds cap", t, n)
	}
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	b[4], b[5], b[6], b[7] = byte(t), 0, 0, 0 // the buffer is reused: clear flags and reserved
	binary.LittleEndian.PutUint64(b[8:], w.wseq)
	binary.LittleEndian.PutUint32(b[16:], uint32(n))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	w.wbuf = b
	if _, err := w.rw.Write(b); err != nil {
		return fmt.Errorf("migrate: writing %v frame: %w", t, err)
	}
	w.wseq++
	w.moved += uint64(len(b))
	return nil
}

// readFrame receives and validates one frame. The payload it returns
// aliases the conn's read buffer and is valid only until the next
// readFrame on this conn.
func (w *wireConn) readFrame() (frameType, []byte, error) {
	hdr := w.rhdr[:]
	if _, err := io.ReadFull(w.rw, hdr); err != nil {
		return 0, nil, fmt.Errorf("migrate: reading frame header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != frameMagic {
		return 0, nil, fmt.Errorf("migrate: bad frame magic %#x", got)
	}
	t := frameType(hdr[4])
	if hdr[5]|hdr[6]|hdr[7] != 0 {
		return 0, nil, fmt.Errorf("migrate: frame %v flags/reserved bytes %#x", t, hdr[5:8])
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	plen := binary.LittleEndian.Uint32(hdr[16:])
	if plen > maxPayload {
		return 0, nil, fmt.Errorf("migrate: frame %v payload %d exceeds cap", t, plen)
	}
	n := int(plen) + trailerSize
	if cap(w.rbuf) < n {
		size := max(n, 2*cap(w.rbuf))
		if size > isa.PageSize {
			size = max(n, pagesFrame)
		}
		w.rbuf = make([]byte, size)
	}
	rest := w.rbuf[:n]
	if _, err := io.ReadFull(w.rw, rest); err != nil {
		return 0, nil, fmt.Errorf("migrate: reading %v payload: %w", t, err)
	}
	crc := crc32.ChecksumIEEE(hdr)
	crc = crc32.Update(crc, crc32.IEEETable, rest[:plen])
	if got := binary.LittleEndian.Uint32(rest[plen:]); got != crc {
		return 0, nil, fmt.Errorf("migrate: frame %v CRC mismatch (seq %d)", t, seq)
	}
	if seq != w.rseq {
		return 0, nil, fmt.Errorf("migrate: frame %v out of sequence: got %d want %d", t, seq, w.rseq)
	}
	w.rseq++
	w.moved += uint64(headerSize + n)
	return t, rest[:plen:plen], nil
}

// expectFrame reads one frame and requires the given type.
func (w *wireConn) expectFrame(t frameType) ([]byte, error) {
	got, p, err := w.readFrame()
	if err != nil {
		return nil, err
	}
	if got != t {
		return nil, fmt.Errorf("migrate: expected %v frame, got %v", t, got)
	}
	return p, nil
}

// ---- payload codecs ------------------------------------------------------

type helloMsg struct {
	NPages uint64
	Mode   Mode
	Pull   bool // a redialed post-commit pull connection
}

func encodeHello(m helloMsg) []byte {
	b := make([]byte, 10)
	binary.LittleEndian.PutUint64(b, m.NPages)
	b[8] = byte(m.Mode)
	if m.Pull {
		b[9] = 1
	}
	return b
}

func decodeHello(p []byte) (helloMsg, error) {
	if len(p) != 10 {
		return helloMsg{}, fmt.Errorf("migrate: hello payload %d bytes", len(p))
	}
	m := helloMsg{
		NPages: binary.LittleEndian.Uint64(p),
		Mode:   Mode(p[8]),
		Pull:   p[9] != 0,
	}
	if m.Mode > PostCopy {
		return helloMsg{}, fmt.Errorf("migrate: hello names unknown mode %d", p[8])
	}
	return m, nil
}

type welcomeMsg struct {
	AckedRounds uint64
	Committed   bool
}

func encodeWelcome(m welcomeMsg) []byte {
	b := make([]byte, 9)
	binary.LittleEndian.PutUint64(b, m.AckedRounds)
	if m.Committed {
		b[8] = 1
	}
	return b
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	if len(p) != 9 {
		return welcomeMsg{}, fmt.Errorf("migrate: welcome payload %d bytes", len(p))
	}
	return welcomeMsg{
		AckedRounds: binary.LittleEndian.Uint64(p),
		Committed:   p[8] != 0,
	}, nil
}

func encodeU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decodeU64(p []byte, what string) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("migrate: %s payload %d bytes", what, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// forRuns walks an ftPages payload, calling fn for each run with its
// start gfn, page count and data: count pages aliasing p, or nil for a zero
// run. It checks structure only — gfn bounds are the applier's job — and
// stops at the first malformed run or error from fn.
func forRuns(p []byte, fn func(start uint64, count uint32, data []byte) error) error {
	for len(p) > 0 {
		if len(p) < runHdr {
			return fmt.Errorf("migrate: truncated page-run header (%d bytes)", len(p))
		}
		start := binary.LittleEndian.Uint64(p[0:])
		count := binary.LittleEndian.Uint32(p[8:])
		zero := p[12]
		if zero > 1 {
			return fmt.Errorf("migrate: page-run flag byte %d", zero)
		}
		if count == 0 || count > maxRunPages {
			return fmt.Errorf("migrate: page-run count %d", count)
		}
		if start+uint64(count) < start {
			return fmt.Errorf("migrate: page-run wraps gfn space")
		}
		p = p[runHdr:]
		var data []byte
		if zero == 0 {
			need := int(count) * isa.PageSize
			if need/isa.PageSize != int(count) || len(p) < need {
				return fmt.Errorf("migrate: page-run data truncated (%d of %d·%d)", len(p), count, isa.PageSize)
			}
			data, p = p[:need:need], p[need:]
		}
		if err := fn(start, count, data); err != nil {
			return err
		}
	}
	return nil
}

// writePages sends the pages of a sorted gfn list as ftPages frames,
// reading each page with read straight into conn's write buffer. Whether a
// run fits the frame is known only once the run closes; one that does not
// is moved, with anything read after it, to the front of the next frame
// once the frame before it is sent.
func writePages(conn *wireConn, gfns []uint64, read func(gfn uint64, buf []byte)) error {
	if len(gfns) == 0 {
		return nil
	}
	// At most a full frame, the open run and the page just read: 257 pages
	// and 1026 run headers.
	need := headerSize + min(len(gfns), maxFrameRuns+2)*runHdr +
		min(len(gfns), 2*framePageCap+1)*isa.PageSize + trailerSize
	if cap(conn.wbuf) < need {
		conn.wbuf = make([]byte, headerSize, need)
	}
	b := conn.frame()
	run := -1 // the open run's header offset in b
	var start uint64
	var count uint32
	var zero bool
	runs, dataPages := 0, 0 // closed runs in the frame and their data pages
	closeRun := func() error {
		binary.LittleEndian.PutUint64(b[run:], start)
		binary.LittleEndian.PutUint32(b[run+8:], count)
		b[run+12] = 0
		pages := int(count)
		if zero {
			b[run+12], pages = 1, 0
		}
		if runs > 0 && (dataPages+pages > framePageCap || runs >= maxFrameRuns) {
			var hdr [trailerSize]byte // the CRC lands on the run's first bytes
			copy(hdr[:], b[run:])
			if err := conn.sendFrame(ftPages, b[:run]); err != nil {
				return err
			}
			copy(b[run:], hdr[:])
			b = b[:headerSize+copy(b[headerSize:], b[run:])]
			runs, dataPages = 0, 0
		}
		runs++
		dataPages += pages
		return nil
	}
	for _, gfn := range gfns {
		contig := run >= 0 && start+uint64(count) == gfn
		// A page that can extend the open data run is read right after it,
		// any other after room for a new run header. A zero page is
		// dropped, so the guess never has to be undone.
		ext := contig && !zero && count < framePageCap
		mark, at := len(b), len(b)
		if !ext {
			at += runHdr
		}
		page := b[at : at+isa.PageSize]
		read(gfn, page)
		isZero := mem.IsZeroPage(page)
		if isZero {
			if contig && zero && count < maxRunPages {
				count++
				continue
			}
			b = b[:mark+runHdr]
		} else {
			b = b[:at+isa.PageSize]
			if ext {
				count++
				continue
			}
		}
		// gfn opens a new run whose header goes at mark. Closing the old
		// run may move it, and everything after it, to a new frame.
		if run >= 0 {
			tail := len(b) - mark
			if err := closeRun(); err != nil {
				return err
			}
			mark = len(b) - tail
		}
		run, start, count, zero = mark, gfn, 1, isZero
	}
	if err := closeRun(); err != nil {
		return err
	}
	return conn.sendFrame(ftPages, b)
}

type commitMsg struct {
	Downtime uint64
	Mode     Mode
	Present  []byte // post-copy: bitmap of source-present gfns
}

func encodeCommit(m commitMsg) []byte {
	b := make([]byte, 10+len(m.Present))
	binary.LittleEndian.PutUint64(b, m.Downtime)
	b[8] = byte(m.Mode)
	if len(m.Present) > 0 {
		b[9] = 1
	}
	copy(b[10:], m.Present)
	return b
}

func decodeCommit(p []byte, npages uint64) (commitMsg, error) {
	if len(p) < 10 {
		return commitMsg{}, fmt.Errorf("migrate: commit payload %d bytes", len(p))
	}
	m := commitMsg{
		Downtime: binary.LittleEndian.Uint64(p),
		Mode:     Mode(p[8]),
	}
	if m.Mode > PostCopy {
		return commitMsg{}, fmt.Errorf("migrate: commit names unknown mode %d", p[8])
	}
	switch p[9] {
	case 0:
		if len(p) != 10 {
			return commitMsg{}, fmt.Errorf("migrate: commit trailing bytes")
		}
	case 1:
		want := int((npages + 7) / 8)
		if len(p) != 10+want {
			return commitMsg{}, fmt.Errorf("migrate: commit bitmap %d bytes, want %d", len(p)-10, want)
		}
		m.Present = p[10 : 10+want : 10+want]
	default:
		return commitMsg{}, fmt.Errorf("migrate: commit bitmap flag %d", p[9])
	}
	return m, nil
}

type pageMsg struct {
	GFN  uint64
	Zero bool
	Have bool // false: source does not hold this page
	Data []byte
}

// appendPage encodes an ftPage payload onto b.
func appendPage(b []byte, m pageMsg) []byte {
	var flags byte
	if m.Zero {
		flags |= 1
	}
	if m.Have {
		flags |= 2
	}
	b = binary.LittleEndian.AppendUint64(b, m.GFN)
	return append(append(b, flags), m.Data...)
}

func decodePage(p []byte) (pageMsg, error) {
	if len(p) < 9 {
		return pageMsg{}, fmt.Errorf("migrate: page payload %d bytes", len(p))
	}
	if p[8] > 3 {
		return pageMsg{}, fmt.Errorf("migrate: page flag byte %d", p[8])
	}
	m := pageMsg{
		GFN:  binary.LittleEndian.Uint64(p),
		Zero: p[8]&1 != 0,
		Have: p[8]&2 != 0,
	}
	wantData := m.Have && !m.Zero
	switch {
	case wantData && len(p) != 9+isa.PageSize:
		return pageMsg{}, fmt.Errorf("migrate: page data %d bytes", len(p)-9)
	case !wantData && len(p) != 9:
		return pageMsg{}, fmt.Errorf("migrate: page trailing bytes")
	}
	if wantData {
		m.Data = p[9 : 9+isa.PageSize : 9+isa.PageSize]
	}
	return m, nil
}

type chunkDoneMsg struct {
	Pushed uint32 // pages actually pushed this chunk (logical wire cost)
	Done   bool   // background push schedule exhausted
}

func encodeChunkDone(m chunkDoneMsg) []byte {
	b := make([]byte, 5)
	binary.LittleEndian.PutUint32(b, m.Pushed)
	if m.Done {
		b[4] = 1
	}
	return b
}

func decodeChunkDone(p []byte) (chunkDoneMsg, error) {
	if len(p) != 5 || p[4] > 1 {
		return chunkDoneMsg{}, fmt.Errorf("migrate: chunk-done payload malformed (%d bytes)", len(p))
	}
	return chunkDoneMsg{Pushed: binary.LittleEndian.Uint32(p), Done: p[4] != 0}, nil
}

type roundEndMsg struct {
	Round uint64
	Pages uint64
}

func encodeRoundEnd(m roundEndMsg) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, m.Round)
	binary.LittleEndian.PutUint64(b[8:], m.Pages)
	return b
}

func decodeRoundEnd(p []byte) (roundEndMsg, error) {
	if len(p) != 16 {
		return roundEndMsg{}, fmt.Errorf("migrate: round-end payload %d bytes", len(p))
	}
	return roundEndMsg{
		Round: binary.LittleEndian.Uint64(p),
		Pages: binary.LittleEndian.Uint64(p[8:]),
	}, nil
}

// bitmap helpers (plain []byte bitmaps keep iteration order deterministic,
// unlike map sets — detorder bans order-sensitive map ranging).

func bitmapSet(b []byte, i uint64)      { b[i>>3] |= 1 << (i & 7) }
func bitmapGet(b []byte, i uint64) bool { return i>>3 < uint64(len(b)) && b[i>>3]&(1<<(i&7)) != 0 }
func newBitmap(n uint64) []byte         { return make([]byte, (n+7)/8) }
