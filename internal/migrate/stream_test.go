package migrate

import (
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"govisor/internal/core"
	"govisor/internal/faultnet"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// vmSnap is a comparable digest of guest-visible state: architectural
// registers (including the cycle counter), a hash of all of RAM as the
// guest would read it (ReadRaw zero-fills absent pages), and console
// output.
type vmSnap struct {
	arch core.ArchState
	ram  [sha256.Size]byte
	uart string
}

func snapVM(vm *core.VM) vmSnap {
	h := sha256.New()
	buf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		vm.Mem.ReadRaw(gfn, buf)
		h.Write(buf)
	}
	var s vmSnap
	s.arch = vm.CaptureArch()
	copy(s.ram[:], h.Sum(nil))
	s.uart = vm.Output()
	return s
}

// TestStreamFaultFreeMatchesInProcess is the differential proof: over a
// clean pipe, the streamed engine is byte-identical to the in-process
// oracle refMigrate for all three modes — same Report (rounds, bytes,
// downtime), same source and destination registers/CSRs/RAM, same
// dirty/COW accounting, and the destinations stay in lockstep when run
// onward.
func TestStreamFaultFreeMatchesInProcess(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		chunk int
	}{
		{"precopy", PreCopy, 0},
		{"stopandcopy", StopAndCopy, 0},
		{"postcopy-push", PostCopy, 8},
		{"postcopy-demand", PostCopy, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcA, dstA := pair(t, 16, 2000)
			optA := DefaultOptions()
			optA.Mode = tc.mode
			optA.PostCopyPushChunk = tc.chunk
			repA, err := refMigrate(srcA, dstA, optA)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}

			srcB, dstB := pair(t, 16, 2000)
			optB := DefaultStreamOptions()
			optB.Mode = tc.mode
			optB.PostCopyPushChunk = tc.chunk
			repB, err := StreamMigrate(srcB, dstB, optB)
			if err != nil {
				t.Fatalf("streamed: %v", err)
			}

			if !reflect.DeepEqual(repA, repB.Report) {
				t.Errorf("report mismatch:\noracle   %+v\nstreamed %+v", repA, repB.Report)
			}
			if repB.Retries != 0 || repB.Resumes != 0 || repB.Aborted {
				t.Errorf("fault-free run reported retries=%d resumes=%d aborted=%v",
					repB.Retries, repB.Resumes, repB.Aborted)
			}
			if repB.WireBytes == 0 {
				t.Errorf("no physical wire bytes accounted")
			}
			if tc.mode != PostCopy && repB.WireBytes >= repB.BytesSent {
				t.Errorf("zero-run batching ineffective: %d physical vs %d logical bytes",
					repB.WireBytes, repB.BytesSent)
			}
			if srcB.State != core.StatePaused {
				t.Errorf("streamed source state %v, want paused", srcB.State)
			}
			if sa, sb := snapVM(srcA), snapVM(srcB); sa != sb {
				t.Errorf("source guest-visible state diverged")
			}
			if da, db := snapVM(dstA), snapVM(dstB); da != db {
				t.Errorf("destination guest-visible state diverged")
			}
			if dstA.Mem.DirtyCount() != dstB.Mem.DirtyCount() ||
				dstA.Mem.Present() != dstB.Mem.Present() {
				t.Errorf("destination dirty/present accounting diverged: dirty %d/%d present %d/%d",
					dstA.Mem.DirtyCount(), dstB.Mem.DirtyCount(),
					dstA.Mem.Present(), dstB.Mem.Present())
			}
			// Run both destinations onward: demand fills (post-copy) and
			// ordinary execution must stay in lockstep.
			dstA.Step(30_000_000 / raceScale)
			dstB.Step(30_000_000 / raceScale)
			if da, db := snapVM(dstA), snapVM(dstB); da != db {
				t.Errorf("post-migration execution diverged")
			}
			if dstA.Stats.RemoteFills != dstB.Stats.RemoteFills {
				t.Errorf("remote fills diverged: %d vs %d", dstA.Stats.RemoteFills, dstB.Stats.RemoteFills)
			}
		})
	}
}

// requireCompleted checks a finished streamed migration moved the paused
// source's exact state (registers modulo the absorbed downtime, RAM) to
// the destination, then verifies the destination executes.
func requireCompleted(t *testing.T, src, dst *core.VM, rep StreamReport) {
	t.Helper()
	if src.State != core.StatePaused {
		t.Fatalf("completed migration left source %v", src.State)
	}
	ss, ds := snapVM(src), snapVM(dst)
	want := ss.arch
	want.Cycles += rep.DowntimeCycles
	if ds.arch != want {
		t.Fatalf("destination architectural state differs from paused source (+downtime)")
	}
	if ds.ram != ss.ram {
		t.Fatalf("destination RAM differs from paused source RAM")
	}
	verifyDestRuns(t, dst)
}

// TestStreamSeededFaultSchedules runs the engine under deterministic
// fault schedules. Every run must either complete with the destination
// byte-identical to the paused source, or abort with the source's
// guest-visible state bit-for-bit unchanged from the instant it paused.
func TestStreamSeededFaultSchedules(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		plan faultnet.Plan
	}{
		{"precopy-mixed", PreCopy, faultnet.Plan{Seed: 1, MeanGapBytes: 60_000, MaxFaults: 3}},
		{"precopy-aggressive", PreCopy, faultnet.Plan{Seed: 6, MeanGapBytes: 25_000, MaxFaults: 6}},
		{"precopy-corrupt", PreCopy, faultnet.Plan{Seed: 3, MeanGapBytes: 50_000, MaxFaults: 3,
			Kinds: []faultnet.Kind{faultnet.KindCorrupt}}},
		{"stopandcopy-cuts", StopAndCopy, faultnet.Plan{Seed: 4, MeanGapBytes: 40_000, MaxFaults: 3,
			Kinds: []faultnet.Kind{faultnet.KindReset, faultnet.KindPartialWrite}}},
		{"precopy-acks-delays", PreCopy, faultnet.Plan{Seed: 5, MeanGapBytes: 45_000, MaxFaults: 4,
			Kinds: []faultnet.Kind{faultnet.KindReadReset, faultnet.KindDelay}}},
		{"postcopy-push-mixed", PostCopy, faultnet.Plan{Seed: 7, MeanGapBytes: 50_000, MaxFaults: 3}},
	}
	var completed, resumed, faulted int
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := pair(t, 16, 2000)
			inj := faultnet.NewInjector(tc.plan)
			var probe *vmSnap
			opt := DefaultStreamOptions()
			opt.Mode = tc.mode
			if tc.mode == PostCopy {
				opt.PostCopyPushChunk = 8
			}
			opt.MaxAttempts = 8
			opt.Wire = PipeWire(inj.Wrap)
			opt.DelayCycles = inj.TakeDelayCycles
			opt.PauseProbe = func() { s := snapVM(src); probe = &s }

			rep, err := StreamMigrate(src, dst, opt)
			if inj.Stats().Total() == 0 {
				t.Errorf("fault plan injected nothing — schedule is vacuous: %+v", inj.Stats())
			} else {
				faulted++
			}
			switch {
			case err == nil:
				completed++
				if rep.Resumes > 0 {
					resumed++
				}
				if tc.mode == PostCopy {
					// The destination already ran; prove it executes and
					// every source page landed despite the faults.
					verifyDestRuns(t, dst)
					for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
						if src.Mem.Frame(gfn) != mem.NoFrame && dst.Mem.Frame(gfn) == mem.NoFrame {
							t.Fatalf("present gfn %d never landed on the destination", gfn)
						}
					}
				} else {
					requireCompleted(t, src, dst, rep)
				}
			case errors.Is(err, ErrAborted):
				if !rep.Aborted {
					t.Fatalf("ErrAborted without rep.Aborted")
				}
				if src.State != core.StateRunning {
					t.Fatalf("aborted migration left source %v", src.State)
				}
				if probe != nil {
					if now := snapVM(src); now != *probe {
						t.Fatalf("rollback is not bit-for-bit: source changed across the aborted brown-out")
					}
				}
				if dst.State != core.StateCreated {
					t.Fatalf("aborted migration left destination %v", dst.State)
				}
				verifyDestRuns(t, src) // the rolled-back source keeps executing
			default:
				t.Fatalf("unexpected error class: %v", err)
			}
		})
	}
	if completed == 0 {
		t.Errorf("no seeded schedule completed — retry/resume path unproven")
	}
	if resumed == 0 {
		t.Errorf("no seeded schedule resumed a dropped connection — resume path unproven")
	}
	if faulted < 5 {
		t.Errorf("only %d schedules injected faults; need ≥5", faulted)
	}
}

// TestStreamResumeResendsOnlySinceLastAck forces connection drops and
// proves the engine resumes from the destination's acked-round state
// instead of restarting, with the result still byte-identical.
func TestStreamResumeResendsOnlySinceLastAck(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	inj := faultnet.NewInjector(faultnet.Plan{
		Seed:         11,
		MeanGapBytes: 50_000,
		MaxFaults:    2,
		Kinds:        []faultnet.Kind{faultnet.KindReset},
	})
	opt := DefaultStreamOptions()
	opt.MaxAttempts = 8
	opt.Wire = PipeWire(inj.Wrap)
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatalf("migration did not survive resets: %v", err)
	}
	if rep.Resumes == 0 || rep.Retries == 0 {
		t.Fatalf("resets injected (%d) but no resume recorded: retries=%d resumes=%d",
			inj.Stats().Resets, rep.Retries, rep.Resumes)
	}
	requireCompleted(t, src, dst, rep)
}

// TestStreamAbortRollsBackOnBudget blows the downtime budget on a clean
// wire: the engine must abort, resume the source with state bit-for-bit
// as it was at Pause, and leave the destination unadopted.
func TestStreamAbortRollsBackOnBudget(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	var probe *vmSnap
	opt := DefaultStreamOptions()
	opt.DowntimeBudget = 1 // any brown-out transfer exceeds this
	opt.PauseProbe = func() { s := snapVM(src); probe = &s }
	rep, err := StreamMigrate(src, dst, opt)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
	if !rep.Aborted {
		t.Fatalf("report not marked aborted")
	}
	if probe == nil {
		t.Fatalf("budget abort must happen during brown-out, after Pause")
	}
	if src.State != core.StateRunning {
		t.Fatalf("source state %v after rollback", src.State)
	}
	if now := snapVM(src); now != *probe {
		t.Fatalf("rollback is not bit-for-bit")
	}
	if dst.State != core.StateCreated {
		t.Fatalf("destination %v after abort, want untouched StateCreated", dst.State)
	}
	verifyDestRuns(t, src)
}

// TestStreamDemandOnlyServesAndReleases: demand-only post-copy over the
// wire serves faults through the background server, and once every
// present page has crossed, both ends release — the destination clears
// its PageSource, the source server exits.
func TestStreamDemandOnlyServesAndReleases(t *testing.T) {
	src, dst := pair(t, 8, 2000)
	opt := DefaultStreamOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 0
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DowntimeCycles != opt.Link.TxCycles(cpuStateWireSize) {
		t.Errorf("demand-only downtime %d, want bare CPU-state transfer", rep.DowntimeCycles)
	}
	if dst.PageSource == nil {
		t.Fatalf("no PageSource installed on the destination")
	}
	verifyDestRuns(t, dst) // real demand faults pull over the wire
	if dst.Stats.RemoteFills == 0 {
		t.Fatalf("destination ran without any remote fills")
	}
	// Drain the rest of the present set through the hook, as further
	// faults would, and prove the source is released.
	hook := dst.PageSource
	if hook == nil {
		t.Fatalf("PageSource cleared before coverage completed")
	}
	for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
		if src.Mem.Frame(gfn) != mem.NoFrame {
			hook(gfn)
		}
	}
	if dst.PageSource != nil {
		t.Fatalf("PageSource still installed after full coverage — source pinned")
	}
	if _, ok := hook(0); ok {
		t.Fatalf("hook re-served an already-transferred page")
	}
}

// TestStreamOverTCP runs the full engine over loopback TCP.
func TestStreamOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	wire := func() (io.ReadWriteCloser, io.ReadWriteCloser, error) {
		type res struct {
			c   net.Conn
			err error
		}
		ch := make(chan res, 1)
		go func() {
			c, err := ln.Accept()
			ch <- res{c, err}
		}()
		sc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		r := <-ch
		if r.err != nil {
			sc.Close()
			return nil, nil, r.err
		}
		return sc, r.c, nil
	}
	src, dst := pair(t, 16, 2000)
	opt := DefaultStreamOptions()
	opt.Wire = wire
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 {
		t.Errorf("clean TCP run recorded %d retries", rep.Retries)
	}
	requireCompleted(t, src, dst, rep)
}

// TestStreamValidatesPair: the streamed entry point applies the same
// guards as the in-process one.
func TestStreamValidatesPair(t *testing.T) {
	src, _ := pair(t, 8, 2000)
	if _, err := StreamMigrate(src, src, DefaultStreamOptions()); err == nil {
		t.Fatalf("self-migration accepted")
	}
}

// roundEndCorrupter flips a bit in the CRC of every round-end frame the
// source writes, so the destination rejects the same frame on every
// attempt while every connect still succeeds.
type roundEndCorrupter struct{ io.ReadWriteCloser }

func (c roundEndCorrupter) Write(b []byte) (int, error) {
	if len(b) > headerSize && frameType(b[4]) == ftRoundEnd {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 1
	}
	return c.ReadWriteCloser.Write(b)
}

// TestStreamGivesUpOnPersistentRejection: a destination that rejects the
// same frame on every attempt must exhaust MaxAttempts, not retry for ever
// because each reconnect succeeds. The wire refuses to dial past a cap, so
// a regression fails here instead of hanging.
func TestStreamGivesUpOnPersistentRejection(t *testing.T) {
	for _, mode := range []Mode{PreCopy, StopAndCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			src, dst := pair(t, 16, 2000)
			const dialCap = 20
			dials := 0
			var probe *vmSnap
			opt := DefaultStreamOptions()
			opt.Mode = mode
			opt.MaxAttempts = 3
			opt.PauseProbe = func() { s := snapVM(src); probe = &s }
			pipe := PipeWire(func(c io.ReadWriteCloser) io.ReadWriteCloser { return roundEndCorrupter{c} })
			opt.Wire = func() (io.ReadWriteCloser, io.ReadWriteCloser, error) {
				if dials++; dials > dialCap {
					return nil, nil, errors.New("dial cap reached")
				}
				return pipe()
			}
			rep, err := StreamMigrate(src, dst, opt)
			if dials > opt.MaxAttempts {
				t.Fatalf("dialed %d times with MaxAttempts %d: the retry loop does not give up", dials, opt.MaxAttempts)
			}
			if !errors.Is(err, ErrAborted) || !rep.Aborted {
				t.Fatalf("want ErrAborted, got %v (aborted=%v)", err, rep.Aborted)
			}
			if src.State != core.StateRunning {
				t.Fatalf("aborted migration left source %v", src.State)
			}
			if probe != nil {
				if now := snapVM(src); now != *probe {
					t.Fatalf("rollback is not bit-for-bit")
				}
			}
			if mode == StopAndCopy && probe == nil {
				t.Fatalf("stop-and-copy never paused the source")
			}
			if dst.State != core.StateCreated {
				t.Fatalf("aborted migration left destination %v", dst.State)
			}
		})
	}
}

// waitGoroutines polls until runtime.NumGoroutine() is at most want, and
// returns the last count: a goroutine that has signalled its end may still
// be running its last instructions.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestMigrateGoroutineLifetime: every Migrate runs over a wire with its own
// goroutines. Pre-copy, stop-and-copy and chunked post-copy leave none
// behind. Demand-only post-copy leaves exactly one, the source-side page
// server, and it exits once every present page has been pulled.
func TestMigrateGoroutineLifetime(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		chunk int
	}{
		{"precopy", PreCopy, 0},
		{"stopandcopy", StopAndCopy, 0},
		{"postcopy-push", PostCopy, 8},
		{"postcopy-demand", PostCopy, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := pair(t, 16, 2000)
			base := runtime.NumGoroutine()
			opt := DefaultOptions()
			opt.Mode = tc.mode
			opt.PostCopyPushChunk = tc.chunk
			if _, err := Migrate(src, dst, opt); err != nil {
				t.Fatal(err)
			}
			if tc.mode != PostCopy || tc.chunk > 0 {
				if n := waitGoroutines(base); n != base {
					t.Fatalf("%d goroutines after migration, %d before", n, base)
				}
				return
			}
			if n := waitGoroutines(base + 1); n != base+1 {
				t.Fatalf("%d goroutines after demand-only migration, want %d (one page server)", n, base+1)
			}
			for gfn := uint64(0); gfn < src.Mem.Pages() && dst.PageSource != nil; gfn++ {
				if src.Mem.Frame(gfn) != mem.NoFrame {
					dst.PageSource(gfn)
				}
			}
			if dst.PageSource != nil {
				t.Fatalf("PageSource still installed after every present page was pulled")
			}
			if n := waitGoroutines(base); n != base {
				t.Fatalf("page server still running after full coverage: %d goroutines, %d before", n, base)
			}
		})
	}
}
