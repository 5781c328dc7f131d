package migrate

// Streamed live migration, the package's one engine: pre-copy,
// stop-and-copy and post-copy run over a byte transport (net.Pipe, TCP,
// anything io.ReadWriteCloser) with the wire codec in wire.go, under an
// explicit failure model. Connections drop, frames corrupt, writes
// truncate; both ends follow one failure rule (retry): each operation
// retries with backoff in simulated cycles and gives up after MaxAttempts
// consecutive failed attempts. Before the commit the source resumes from
// the last destination-acked round, re-sending only what was dirtied
// since, and if the brown-out exceeds a hard DowntimeBudget it aborts and
// rolls the source back so the guest never observes the attempt. After it
// the destination redials, and a failed redial is one more failed attempt.
//
// Cost model: the simulated clock charges the *logical* wire sizes
// (pageWireSize per page, cpuStateWireSize for the CPU state) in round
// order, however frames are physically encoded (zero-run batching shrinks
// WireBytes, never BytesSent). Over a clean transport a migration thus
// equals a plain page copy between the VMs in registers, RAM, dirty/COW
// accounting and Report; stream_test.go checks it against oracle_test.go.
//
// Concurrency model: the protocol is strictly turn-based, so at any moment
// each side has one goroutine touching its conn half. Pre-commit the
// source drives and the destination reacts (session.serve); post-commit in
// post-copy the roles invert — the destination drives pulls and chunk
// requests, and redials on failure, handing the source a fresh half via
// the session (standing in for dialing the source's listener).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// ErrAborted tags a migration that gave up and rolled back: the source is
// running again with guest-visible state exactly as it was at Pause, the
// destination is to be discarded.
var ErrAborted = errors.New("migrate: aborted; source rolled back")

// errBudget is the non-retriable brown-out overrun.
var errBudget = errors.New("migrate: downtime budget exceeded")

// Wire produces one connection attempt: the source-side and
// destination-side halves of a fresh duplex byte stream.
type Wire func() (src, dst io.ReadWriteCloser, err error)

// PipeWire is a Wire over net.Pipe. wrapSrc, when non-nil, wraps the
// source half — the hook where a faultnet injector goes.
func PipeWire(wrapSrc func(io.ReadWriteCloser) io.ReadWriteCloser) Wire {
	return func() (io.ReadWriteCloser, io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		var s io.ReadWriteCloser = a
		if wrapSrc != nil {
			s = wrapSrc(a)
		}
		return s, b, nil
	}
}

// StreamOptions configures a streamed migration.
type StreamOptions struct {
	Options
	// Wire opens a connection attempt (default: a clean net.Pipe).
	Wire Wire
	// MaxAttempts bounds consecutive failed attempts of one operation, at
	// either end, before the migration gives up (default 5).
	MaxAttempts int
	// BackoffCycles is the base retry backoff in simulated cycles,
	// doubling per consecutive failure (default 200_000).
	BackoffCycles uint64
	// DowntimeBudget caps brown-out cycles; exceeding it aborts and rolls
	// back. 0 means unlimited.
	DowntimeBudget uint64
	// DelayCycles, when set, drains injected latency (e.g. a faultnet
	// Injector's TakeDelayCycles) to charge to the simulated clock.
	DelayCycles func() uint64
	// PauseProbe, when set, runs immediately after the source pauses —
	// the test hook that checkpoints guest-visible state for rollback
	// proofs.
	PauseProbe func()
}

// DefaultStreamOptions mirrors DefaultOptions with streaming defaults.
func DefaultStreamOptions() StreamOptions {
	return StreamOptions{Options: DefaultOptions(), MaxAttempts: 5, BackoffCycles: 200_000}
}

// StreamReport extends Report with transport-level outcomes.
type StreamReport struct {
	Report
	WireBytes uint64 // physical bytes moved on engine-tracked conns
	Retries   uint64 // failed operations / connection attempts
	Resumes   uint64 // successful reconnects after a drop
	Aborted   bool   // gave up; source rolled back (or never paused)
}

// StreamMigrate moves the running guest in src to dst over a wire. On
// success dst is running and src is paused; on an ErrAborted error src is
// running again with guest-visible state bit-for-bit as it was when the
// brown-out began.
//
//govisor:serialonly(drives two VMs and a wire protocol; migration runs outside worker context)
func StreamMigrate(src, dst *core.VM, opt StreamOptions) (StreamReport, error) {
	if err := validatePair(src, dst); err != nil {
		return StreamReport{}, err
	}
	if opt.Wire == nil {
		opt.Wire = PipeWire(nil)
	}
	def := DefaultStreamOptions()
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = def.MaxAttempts
	}
	if opt.BackoffCycles == 0 {
		opt.BackoffCycles = def.BackoffCycles
	}
	e := &streamEngine{s: newSession(src, dst, opt), src: src, opt: opt, retry: newRetry(opt)}
	e.rep.Mode = opt.Mode
	var err error
	switch opt.Mode {
	case PreCopy:
		err = e.preCopy()
	case StopAndCopy:
		err = e.stopAndCopy()
	case PostCopy:
		err = e.postCopy()
	default:
		return StreamReport{}, fmt.Errorf("migrate: unknown mode %d", opt.Mode)
	}
	e.finish()
	return e.rep, err
}

// retry is the migration's one failure rule, kept per operation at both
// ends: count consecutive failed attempts, give up at MaxAttempts, and wait
// a backoff that starts at BackoffCycles and doubles per failure before the
// next attempt. Only a completed operation resets it.
type retry struct {
	max        int
	base, next uint64
	fails      int
}

func newRetry(opt StreamOptions) retry {
	return retry{max: opt.MaxAttempts, base: opt.BackoffCycles, next: opt.BackoffCycles}
}

// fail records one failed attempt. It returns the backoff to wait before
// the next attempt, or ok false when the operation must give up.
func (r *retry) fail() (backoff uint64, ok bool) {
	if r.fails++; r.fails >= r.max {
		return 0, false
	}
	backoff = r.next
	r.next *= 2
	return backoff, true
}

// done resets the rule after a completed operation.
func (r *retry) done() { r.fails, r.next = 0, r.base }

// ---- destination session -------------------------------------------------

// session holds the state both hosts' migration daemons share across
// connection attempts: the destination's acked-round / committed record
// (what welcome reports on resume), the applied-page bitmap, and the
// source's post-copy serving state.
type session struct {
	src, dst *core.VM
	opt      StreamOptions
	npages   uint64
	zeroPage []byte

	mu          sync.Mutex
	ackedRounds uint64
	committed   bool
	applied     []byte // dest: pages landed (stream or pull)
	present     []byte // dest: source-present bitmap from commit
	missing     uint64 // dest: present pages not yet landed
	arch        core.ArchState
	haveArch    bool
	// dest-side accounting merged into the engine report at sync points
	destFills   uint64
	destBytes   uint64
	destCycles  uint64
	destRetries uint64
	destResumes uint64
	wireBytes   uint64

	// post-copy source serving state (fixed at commit: the push
	// schedule and the pages already sent). srvMu
	// serializes spawned demand-only servers: a redial may start the next
	// server while the previous one is still unwinding from its dead conn,
	// and both touch this state.
	srvMu     sync.Mutex
	remaining []uint64
	cursor    int
	sent      []byte
	sentCount uint64
	srcCount  uint64 // len of present set at commit

	// dest-driven redial plumbing
	dstConn  *wireConn
	srcConns chan io.ReadWriteCloser // chunk mode: fresh src halves for the engine
}

func newSession(src, dst *core.VM, opt StreamOptions) *session {
	return &session{
		src:      src,
		dst:      dst,
		opt:      opt,
		npages:   dst.Mem.Pages(),
		zeroPage: make([]byte, isa.PageSize),
		applied:  newBitmap(dst.Mem.Pages()),
		srcConns: make(chan io.ReadWriteCloser, 1),
	}
}

func (s *session) welcome() welcomeMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return welcomeMsg{AckedRounds: s.ackedRounds, Committed: s.committed}
}

func (s *session) isCommitted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

func (s *session) addWire(n uint64) {
	s.mu.Lock()
	s.wireBytes += n
	s.mu.Unlock()
}

// markApplied records a landed page; when it lands the last missing
// present page it clears the destination's PageSource — the source is no
// longer pinned.
func (s *session) markApplied(gfn uint64) {
	s.mu.Lock()
	release := false
	if !bitmapGet(s.applied, gfn) {
		bitmapSet(s.applied, gfn)
		if bitmapGet(s.present, gfn) {
			s.missing--
			release = s.missing == 0
		}
	}
	s.mu.Unlock()
	if release {
		s.dst.PageSource = nil
	}
}

// applyRuns lands an ftPages payload in the destination's RAM, in gfn
// order, through WriteRaw, as a plain page copy would. The whole payload
// is checked before any page lands: a malformed frame applies nothing.
func (s *session) applyRuns(p []byte) error {
	if err := forRuns(p, func(start uint64, count uint32, _ []byte) error {
		if start+uint64(count) > s.npages {
			return fmt.Errorf("migrate: page run [%d,+%d) outside %d pages", start, count, s.npages)
		}
		return nil
	}); err != nil {
		return err
	}
	return forRuns(p, func(start uint64, count uint32, data []byte) error {
		for i := uint64(0); i < uint64(count); i++ {
			gfn := start + i
			page := s.zeroPage
			if data != nil {
				page = data[i*isa.PageSize : (i+1)*isa.PageSize]
			}
			if err := s.dst.Mem.WriteRaw(gfn, page); err != nil {
				return fmt.Errorf("migrate: applying gfn %d: %w", gfn, err)
			}
			s.markApplied(gfn)
		}
		return nil
	})
}

// serve reacts to one source-driven connection: apply pages, ack rounds,
// adopt on commit. Returns keepConn=true when the conn's ownership has
// passed to the demand-pull closure (post-copy demand-only).
func (s *session) serve(conn *wireConn) (keepConn bool) {
	for {
		t, p, err := conn.readFrame()
		if err != nil {
			return false
		}
		switch t {
		case ftHello:
			if _, err := decodeHello(p); err != nil {
				return false
			}
			if conn.writeFrame(ftWelcome, encodeWelcome(s.welcome())) != nil {
				return false
			}
		case ftPages:
			if s.applyRuns(p) != nil {
				return false
			}
		case ftArch:
			a, err := core.DecodeArchState(p)
			if err != nil {
				return false
			}
			s.mu.Lock()
			s.arch, s.haveArch = a, true
			s.mu.Unlock()
		case ftRoundEnd:
			m, err := decodeRoundEnd(p)
			if err != nil {
				return false
			}
			s.mu.Lock()
			if m.Round >= s.ackedRounds {
				s.ackedRounds = m.Round + 1
			}
			s.mu.Unlock()
			if conn.writeFrame(ftRoundAck, encodeU64(m.Round)) != nil {
				return false
			}
		case ftCommit:
			m, err := decodeCommit(p, s.npages)
			if err != nil || s.commit(m, conn) != nil {
				return false
			}
			if conn.writeFrame(ftCommitAck, nil) != nil {
				return false
			}
			if s.opt.Mode != PostCopy {
				return false // session complete
			}
			if s.opt.PostCopyPushChunk > 0 {
				s.pushLoop()
				return false
			}
			return true // demand-only: the PageSource closure owns conn now
		default:
			return false
		}
	}
}

// commit performs the switchover once; resends are acked idempotently.
func (s *session) commit(m commitMsg, conn *wireConn) error {
	s.mu.Lock()
	if s.committed {
		s.mu.Unlock()
		return nil
	}
	if !s.haveArch {
		s.mu.Unlock()
		return errors.New("migrate: commit before architectural state")
	}
	arch := s.arch
	s.committed = true
	if s.opt.Mode == PostCopy {
		s.present = append([]byte(nil), m.Present...)
		for i := uint64(0); i < s.npages; i++ {
			if bitmapGet(s.present, i) && !bitmapGet(s.applied, i) {
				s.missing++
			}
		}
	}
	s.mu.Unlock()
	s.dst.AdoptArch(arch)
	s.dst.CPU.AddCycles(m.Downtime)
	if s.opt.Mode == PostCopy {
		s.dstConn = conn
		s.dst.PageSource = s.demandPull
	}
	return nil
}

// demandPull is the destination's post-copy PageSource: consult the
// present bitmap locally (absent pages fall back to demand-zero at no
// cost), pull over the wire with retry/redial, and charge one RTT plus
// the transfer of pageWireSize per pulled page.
func (s *session) demandPull(gfn uint64) (page []byte, ok bool) {
	s.mu.Lock()
	skip := !bitmapGet(s.present, gfn) || bitmapGet(s.applied, gfn)
	s.mu.Unlock()
	if skip {
		return nil, false
	}
	if err := s.retryRemote(func() (err error) {
		page, ok, err = s.tryPull(gfn)
		return err
	}); err != nil {
		s.dst.FailRemote(fmt.Errorf("migrate: demand pull gfn %d: %w", gfn, err))
		return nil, false
	}
	if !ok {
		return nil, false
	}
	cost := s.opt.Link.RTTCycles + s.opt.Link.TxCycles(pageWireSize)
	s.dst.CPU.AddCycles(cost)
	s.mu.Lock()
	s.destFills++
	s.destBytes += pageWireSize
	s.destCycles += cost
	s.mu.Unlock()
	s.markApplied(gfn)
	return page, true
}

// retryRemote runs one destination-driven post-commit operation under the
// failure rule. After a failed attempt it waits out the backoff on the
// destination's clock and redials; a failed redial is one more failed
// attempt, so only MaxAttempts consecutive failures lose the source. Giving
// up closes the conn, so a source-side server still reading it exits.
func (s *session) retryRemote(op func() error) error {
	r := newRetry(s.opt)
	err := op()
	for err != nil {
		s.mu.Lock()
		s.destRetries++
		s.mu.Unlock()
		backoff, ok := r.fail()
		if !ok {
			s.dstConn.Close()
			return err
		}
		s.chargeDst(backoff)
		if err = s.redial(); err == nil {
			err = op()
		}
	}
	return nil
}

func (s *session) tryPull(gfn uint64) ([]byte, bool, error) {
	conn := s.dstConn
	if err := conn.writeFrame(ftPull, encodeU64(gfn)); err != nil {
		return nil, false, err
	}
	p, err := conn.expectFrame(ftPage)
	if err != nil {
		return nil, false, err
	}
	m, err := decodePage(p)
	if err != nil {
		return nil, false, err
	}
	if m.GFN != gfn {
		return nil, false, fmt.Errorf("migrate: pulled gfn %d, asked for %d", m.GFN, gfn)
	}
	switch {
	case !m.Have:
		return nil, false, nil
	case m.Zero:
		return s.zeroPage, true, nil
	}
	return m.Data, true, nil
}

// chargeDst puts overhead cycles (backoff, injected delay) on the
// destination's clock — post-commit the destination is the running guest.
func (s *session) chargeDst(c uint64) {
	if s.opt.DelayCycles != nil {
		c += s.opt.DelayCycles()
	}
	if c > 0 {
		s.dst.CPU.AddCycles(c)
	}
}

// dial opens a fresh wire, hands the far half to serve (which starts the
// peer's side of it), and handshakes on the near half: hello out, welcome
// back. The source dials before a pre-commit attempt; the destination dials
// to replace a failed post-commit conn, with a Pull hello. The conn comes
// back even when the handshake fails, for the caller to close.
func (s *session) dial(hello helloMsg, serve func(far io.ReadWriteCloser)) (*wireConn, welcomeMsg, error) {
	sh, dh, err := s.opt.Wire()
	if err != nil {
		return nil, welcomeMsg{}, err
	}
	near, far := sh, dh
	if hello.Pull {
		near, far = dh, sh
	}
	conn := newWireConn(near)
	serve(far)
	if err := conn.writeFrame(ftHello, encodeHello(hello)); err != nil {
		return conn, welcomeMsg{}, err
	}
	p, err := conn.expectFrame(ftWelcome)
	if err != nil {
		return conn, welcomeMsg{}, err
	}
	w, err := decodeWelcome(p)
	return conn, w, err
}

// redial replaces the failed post-commit connection: close the old half
// and dial, handing the source half to whichever source-side server runs
// (the engine's serve loop in chunk mode, a spawned goroutine in
// demand-only mode). When no wire opens, the closed old conn stays, and
// the next attempt on it fails.
func (s *session) redial() error {
	s.dstConn.Close()
	conn, _, err := s.dial(helloMsg{NPages: s.npages, Mode: s.opt.Mode, Pull: true}, func(sh io.ReadWriteCloser) {
		if s.opt.PostCopyPushChunk > 0 {
			s.srcConns <- sh
		} else {
			go s.runServer(newWireConn(sh))
		}
	})
	if conn != nil {
		s.dstConn = conn
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.destResumes++
	s.mu.Unlock()
	return nil
}

// runServer wraps servePulls for spawned (demand-only) servers. Holding
// srvMu for the server's lifetime serializes successive servers across
// redials: the old conn is already closed when the next server spawns, so
// the old server exits promptly and the handoff cannot interleave on the
// shared serving schedule.
func (s *session) runServer(conn *wireConn) {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	s.servePulls(conn)
	conn.Close()
	s.addWire(conn.moved)
}

// pushLoop is the destination's chunk-mode driver: request background
// chunks, apply them, run the guest for the chunk's transfer cycles
// (demand pulls interleave on the same conn), redial on failure. Each
// chunk is one operation under the failure rule.
func (s *session) pushLoop() {
	for done := false; !done; {
		if err := s.retryRemote(func() (err error) {
			done, err = s.pushChunkOnce()
			return err
		}); err != nil {
			s.dst.FailRemote(fmt.Errorf("migrate: post-copy push lost the source: %w", err))
			return
		}
	}
}

// pushChunkOnce requests one chunk and applies it. The chunk costs
// TxCycles(pushed·pageWireSize), and the destination guest runs for
// exactly that long.
func (s *session) pushChunkOnce() (done bool, err error) {
	conn := s.dstConn
	if err := conn.writeFrame(ftPullChunk, encodeU64(uint64(s.opt.PostCopyPushChunk))); err != nil {
		return false, err
	}
	for {
		t, p, err := conn.readFrame()
		if err != nil {
			return false, err
		}
		switch t {
		case ftPages:
			if err := s.applyRuns(p); err != nil {
				return false, err
			}
		case ftChunkDone:
			m, err := decodeChunkDone(p)
			if err != nil {
				return false, err
			}
			bytes := uint64(m.Pushed) * pageWireSize
			cost := s.opt.Link.TxCycles(bytes)
			s.mu.Lock()
			s.destBytes += bytes
			s.destCycles += cost
			s.mu.Unlock()
			if s.dst.State == core.StateRunning {
				s.dst.Step(cost)
			}
			return m.Done, nil
		default:
			return false, fmt.Errorf("migrate: unexpected %v frame in push loop", t)
		}
	}
}

// ---- source-side post-copy server ---------------------------------------

// initPullState freezes the source's serving schedule at commit: the
// present pages in gfn order and the sent bitmap.
func (s *session) initPullState() {
	s.remaining = presentPages(s.src)
	s.cursor = 0
	s.sent = newBitmap(s.src.Mem.Pages())
	s.sentCount = 0
	s.srcCount = uint64(len(s.remaining))
}

// servePulls is the source's post-commit server: answer demand pulls and
// chunk requests until the schedule is exhausted (chunk mode) or every
// present page has been pulled (demand-only). Returns nil on completion,
// an error when the conn died (the destination will redial).
func (s *session) servePulls(conn *wireConn) error {
	buf := make([]byte, isa.PageSize)
	for {
		t, p, err := conn.readFrame()
		if err != nil {
			return err
		}
		switch t {
		case ftHello:
			if _, err := decodeHello(p); err != nil {
				return err
			}
			if err := conn.writeFrame(ftWelcome, encodeWelcome(s.welcome())); err != nil {
				return err
			}
		case ftPull:
			gfn, err := decodeU64(p, "pull")
			if err != nil {
				return err
			}
			if err := s.servePage(conn, gfn, buf); err != nil {
				return err
			}
			if s.opt.PostCopyPushChunk == 0 && s.sentCount >= s.srcCount {
				return nil // demand-only coverage complete; source released
			}
		case ftPullChunk:
			if _, err := decodeU64(p, "pull-chunk"); err != nil {
				return err
			}
			exhausted, err := s.serveChunk(conn, buf)
			if err != nil {
				return err
			}
			if exhausted {
				return nil
			}
		default:
			return fmt.Errorf("migrate: unexpected %v frame in pull server", t)
		}
	}
}

func (s *session) servePage(conn *wireConn, gfn uint64, buf []byte) error {
	m := pageMsg{GFN: gfn}
	if gfn < s.src.Mem.Pages() && s.src.Mem.Frame(gfn) != mem.NoFrame {
		s.src.Mem.ReadRaw(gfn, buf)
		m.Have = true
		if mem.IsZeroPage(buf) {
			m.Zero = true
		} else {
			m.Data = buf
		}
		if !bitmapGet(s.sent, gfn) {
			bitmapSet(s.sent, gfn)
			s.sentCount++
		}
	}
	return conn.sendFrame(ftPage, appendPage(conn.frame(), m))
}

// serveChunk advances the push schedule by one chunk: consume
// PostCopyPushChunk entries of the frozen remaining list, push the
// not-yet-sent ones, report the pushed count. Cursor and sent marks only
// advance after the whole chunk is on the wire, so a mid-chunk drop
// re-sends the same chunk.
func (s *session) serveChunk(conn *wireConn, buf []byte) (exhausted bool, err error) {
	chunk := s.opt.PostCopyPushChunk
	if chunk > len(s.remaining)-s.cursor {
		chunk = len(s.remaining) - s.cursor
	}
	var push []uint64
	for _, gfn := range s.remaining[s.cursor : s.cursor+chunk] {
		if !bitmapGet(s.sent, gfn) {
			push = append(push, gfn)
		}
	}
	if err := writePages(conn, push, s.src.Mem.ReadRaw); err != nil {
		return false, err
	}
	exhausted = s.cursor+chunk >= len(s.remaining)
	if err := conn.writeFrame(ftChunkDone, encodeChunkDone(chunkDoneMsg{Pushed: uint32(len(push)), Done: exhausted})); err != nil {
		return false, err
	}
	s.cursor += chunk
	for _, gfn := range push {
		if !bitmapGet(s.sent, gfn) {
			bitmapSet(s.sent, gfn)
			s.sentCount++
		}
	}
	return exhausted, nil
}

// ---- source-side engine --------------------------------------------------

type streamEngine struct {
	s   *session
	src *core.VM
	opt StreamOptions
	rep StreamReport

	conn        *wireConn
	reactorDone chan struct{}
	lastWelcome welcomeMsg
	connected   bool
	retry       retry

	paused       bool
	ckpt         core.ArchState
	downtime     uint64
	lastCommitDT uint64
}

// connect dials when no conn is up, with the destination reactor serving
// the far half.
func (e *streamEngine) connect() error {
	if e.conn != nil {
		return nil
	}
	conn, w, err := e.s.dial(helloMsg{NPages: e.src.Mem.Pages(), Mode: e.opt.Mode}, func(dh io.ReadWriteCloser) {
		dconn, done := newWireConn(dh), make(chan struct{})
		e.reactorDone = done
		go func() {
			if !e.s.serve(dconn) {
				dconn.Close()
			}
			close(done)
		}()
	})
	e.conn = conn
	if err != nil {
		return err
	}
	e.lastWelcome = w
	if e.connected {
		e.rep.Resumes++
	}
	e.connected = true
	return nil
}

// teardown closes the engine's conn and joins the reactor so the
// destination's view is settled before the next decision.
func (e *streamEngine) teardown() {
	if e.conn == nil {
		return
	}
	e.conn.Close()
	e.rep.WireBytes += e.conn.moved
	e.conn = nil
	if e.reactorDone != nil {
		<-e.reactorDone
		e.reactorDone = nil
	}
}

// attempt runs one source-driven operation under the failure rule: bring
// a conn up, skip the operation when the destination's welcome shows it
// already landed (its ack was lost), else try it. A failed connect or try
// tears the conn down and counts one failed attempt, charging its backoff.
// A connect alone does not reset the count, so a frame the destination
// rejects on every attempt still exhausts MaxAttempts.
func (e *streamEngine) attempt(landed func(welcomeMsg) bool, try func() error) error {
	for {
		err := e.connect()
		if err == nil && !landed(e.lastWelcome) {
			err = try()
		}
		switch {
		case err == nil:
			e.retry.done()
			return nil
		case errors.Is(err, errBudget):
			return err
		}
		e.teardown()
		e.rep.Retries++
		backoff, ok := e.retry.fail()
		if !ok {
			return err
		}
		if err := e.chargeOverhead(backoff); err != nil {
			return err
		}
	}
}

// chargeOverhead accounts non-transfer cycles (backoff, injected delay):
// a running source executes through them; a paused source accrues
// downtime against the budget.
func (e *streamEngine) chargeOverhead(c uint64) error {
	if e.opt.DelayCycles != nil {
		c += e.opt.DelayCycles()
	}
	if c == 0 {
		return nil
	}
	if e.paused {
		e.downtime += c
		return e.checkBudget()
	}
	if e.src.State == core.StateRunning {
		e.src.Step(c)
	} else {
		e.src.CPU.AddCycles(c)
	}
	return nil
}

func (e *streamEngine) checkBudget() error {
	if e.opt.DowntimeBudget > 0 && e.downtime > e.opt.DowntimeBudget {
		return errBudget
	}
	return nil
}

// sendRound streams one round of pages and waits for the destination's
// ack, retrying across reconnects. The welcome tells whether a round
// whose ack was lost actually landed, so it is never re-sent. Returns the
// cycles charged (summed across attempts).
func (e *streamEngine) sendRound(gfns []uint64, idx uint64, interleave bool) (spent uint64, err error) {
	err = e.attempt(func(w welcomeMsg) bool { return w.AckedRounds > idx }, func() error {
		c, err := e.trySendRound(gfns, idx, interleave)
		spent += c
		return err
	})
	return spent, err
}

// trySendRound is one attempt: write the page runs and the round marker,
// charge the logical transfer cost of len(gfns) pages (the source
// executes through an interleaved round; a paused source's clock still
// advances), then block on the ack.
func (e *streamEngine) trySendRound(gfns []uint64, idx uint64, interleave bool) (uint64, error) {
	if err := writePages(e.conn, gfns, e.src.Mem.ReadRaw); err != nil {
		return 0, err
	}
	c := uint64(len(gfns)) * e.opt.Link.TxCycles(pageWireSize)
	if err := e.conn.writeFrame(ftRoundEnd, encodeRoundEnd(roundEndMsg{Round: idx, Pages: uint64(len(gfns))})); err != nil {
		return 0, err
	}
	e.rep.BytesSent += uint64(len(gfns)) * pageWireSize
	if c > 0 {
		if interleave && e.src.State == core.StateRunning {
			e.src.Step(c)
		} else {
			e.src.CPU.AddCycles(c)
		}
	}
	if e.paused {
		e.downtime += c
		if err := e.checkBudget(); err != nil {
			return c, err
		}
	}
	p, err := e.conn.expectFrame(ftRoundAck)
	if err != nil {
		return c, err
	}
	acked, err := decodeU64(p, "round-ack")
	if err != nil {
		return c, err
	}
	if acked != idx {
		return c, fmt.Errorf("migrate: acked round %d, expected %d", acked, idx)
	}
	return c, nil
}

// sendCommit transfers the architectural state and the switchover marker.
// If retries exhaust after the commit may have landed, the destination's
// committed flag resolves the ambiguity, standing in for a fencing
// oracle; a real deployment would consult shared storage or a
// coordination service before declaring either side dead.
func (e *streamEngine) sendCommit(present []byte) error {
	txCPU := e.opt.Link.TxCycles(cpuStateWireSize)
	err := e.attempt(func(w welcomeMsg) bool { return w.Committed }, func() error {
		if err := e.conn.writeFrame(ftArch, e.src.CaptureArch().Append(make([]byte, 0, core.ArchStateSize))); err != nil {
			return err
		}
		e.downtime += txCPU
		e.rep.BytesSent += cpuStateWireSize
		if err := e.checkBudget(); err != nil {
			return err
		}
		e.lastCommitDT = e.downtime
		if err := e.conn.writeFrame(ftCommit, encodeCommit(commitMsg{Downtime: e.downtime, Mode: e.opt.Mode, Present: present})); err != nil {
			return err
		}
		_, err := e.conn.expectFrame(ftCommitAck)
		return err
	})
	if err != nil && e.s.isCommitted() {
		return nil // the commit landed while we were giving up
	}
	return err
}

// pause stops the source and checkpoints it for rollback.
func (e *streamEngine) pause() {
	e.src.Pause()
	e.ckpt = e.src.CaptureArch()
	e.paused = true
	if e.opt.PauseProbe != nil {
		e.opt.PauseProbe()
	}
}

// bail fails a migration that never paused the source: nothing to roll
// back, the guest kept running through every retry.
func (e *streamEngine) bail(cause error) error {
	e.teardown()
	e.rep.Aborted = true
	return fmt.Errorf("%w: %v", ErrAborted, cause)
}

// abort rolls the source back to the Pause checkpoint and resumes it: the
// guest's registers, CSRs, and cycle counter are bit-for-bit as if the
// brown-out never happened (RAM was only read during it). Safe because
// abort is only reachable before the commit landed (sendCommit reports a
// landed commit as success) — afterwards the destination owns the guest.
func (e *streamEngine) abort(cause error) error {
	e.teardown()
	e.src.RestoreArch(e.ckpt)
	e.src.Resume()
	e.rep.Aborted = true
	return fmt.Errorf("%w: %v", ErrAborted, cause)
}

// finish settles accounting: fold the destination session's counters and
// retired-conn byte counts into the report.
func (e *streamEngine) finish() {
	if e.conn != nil {
		e.rep.WireBytes += e.conn.moved
	}
	s := e.s
	s.mu.Lock()
	e.rep.RemoteFills += s.destFills
	e.rep.BytesSent += s.destBytes
	e.rep.TotalCycles += s.destCycles
	e.rep.Retries += s.destRetries
	e.rep.Resumes += s.destResumes
	e.rep.WireBytes += s.wireBytes
	s.mu.Unlock()
}

// drainDelay charges any injected latency that accumulated outside a
// retry (running phase: the guest executes through it).
func (e *streamEngine) drainDelay() error { return e.chargeOverhead(0) }

func (e *streamEngine) preCopy() error {
	rep := &e.rep.Report
	src := e.src
	src.Mem.CollectDirty(nil)
	all := presentPages(src)
	c, err := e.sendRound(all, 0, true)
	if err != nil {
		return e.bail(err)
	}
	rep.TotalCycles += c
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(all)), Cycles: c})
	if err := e.drainDelay(); err != nil {
		return e.bail(err)
	}

	var dirty []uint64
	idx := uint64(1)
	for round := 1; round <= e.opt.MaxRounds; round++ {
		if src.Mem.DirtyCount() <= e.opt.StopThresholdPages {
			rep.Converged = true
			break
		}
		dirty = src.Mem.CollectDirty(dirty[:0])
		c, err := e.sendRound(dirty, idx, true)
		if err != nil {
			return e.bail(err)
		}
		idx++
		rep.TotalCycles += c
		rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(dirty)), Cycles: c})
		if err := e.drainDelay(); err != nil {
			return e.bail(err)
		}
	}

	e.pause()
	dirty = src.Mem.CollectDirty(dirty[:0])
	if _, err := e.sendRound(dirty, idx, false); err != nil {
		return e.abort(err)
	}
	if err := e.sendCommit(nil); err != nil {
		return e.abort(err)
	}
	rep.DowntimeCycles = e.lastCommitDT
	rep.TotalCycles += e.downtime
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(dirty)), Cycles: e.downtime})
	return nil
}

func (e *streamEngine) stopAndCopy() error {
	rep := &e.rep.Report
	rep.Converged = true
	e.pause()
	all := presentPages(e.src)
	if _, err := e.sendRound(all, 0, false); err != nil {
		return e.abort(err)
	}
	if err := e.sendCommit(nil); err != nil {
		return e.abort(err)
	}
	rep.DowntimeCycles = e.lastCommitDT
	rep.TotalCycles = e.downtime
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(all)), Cycles: e.downtime})
	return nil
}

func (e *streamEngine) postCopy() error {
	rep := &e.rep.Report
	rep.Converged = true
	e.pause()
	present := newBitmap(e.src.Mem.Pages())
	for _, gfn := range presentPages(e.src) {
		bitmapSet(present, gfn)
	}
	if err := e.sendCommit(present); err != nil {
		return e.abort(err)
	}
	rep.DowntimeCycles = e.lastCommitDT
	rep.TotalCycles += e.downtime
	e.s.initPullState()

	if e.opt.PostCopyPushChunk > 0 {
		return e.servePhase()
	}
	// Demand-only: hand the source conn to a background server and
	// return; demand fills accrue on the destination afterwards and are
	// not in the returned report. The handshake and
	// commit bytes already moved, so fold them in now and zero the
	// counter — the server reports only post-handoff traffic. Join the
	// destination reactor first: its last act was writing the commit ack
	// on the conn the PageSource closure now owns, and the join is the
	// happens-before edge between those writes and the caller's pulls.
	conn := e.conn
	e.conn = nil
	e.rep.WireBytes += conn.moved
	conn.moved = 0
	if e.reactorDone != nil {
		<-e.reactorDone
		e.reactorDone = nil
	}
	go e.s.runServer(conn)
	return nil
}

// servePhase runs the source's post-commit serving loop for chunk mode,
// accepting redialed conns from the destination until the schedule
// completes or the destination gives up. Either way it waits for the
// destination's last Step, and reports a destination that a failed demand
// pull or push stopped.
func (e *streamEngine) servePhase() error {
	for e.conn != nil {
		err := e.s.servePulls(e.conn)
		e.conn.Close()
		e.rep.WireBytes += e.conn.moved
		e.conn = nil
		if err != nil {
			select {
			case sh := <-e.s.srcConns:
				e.conn = newWireConn(sh)
			case <-e.reactorDone:
			}
		}
	}
	<-e.reactorDone
	e.reactorDone = nil
	if e.s.dst.State == core.StateError {
		return fmt.Errorf("migrate: destination lost the source post-commit: %w", e.s.dst.Err)
	}
	return nil
}
