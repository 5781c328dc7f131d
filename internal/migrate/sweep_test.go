package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

var errCut = errors.New("cut")

// cutPlan cuts chosen writes of a migration's source halves. Writes are
// numbered across every connection of the migration in the order they
// happen. The write numbered cut fails and closes its connection; with
// twice set, so does the first write of the next connection dialed after
// it. A cut of -1 only counts.
type cutPlan struct {
	mu     sync.Mutex
	cut    int
	twice  bool
	writes int
	armed  bool // the next connection's first write is cut
}

type cutConn struct {
	io.ReadWriteCloser
	p     *cutPlan
	first bool // this connection's first write is cut
	wrote bool
}

func (p *cutPlan) wrap(c io.ReadWriteCloser) io.ReadWriteCloser {
	p.mu.Lock()
	defer p.mu.Unlock()
	cc := &cutConn{ReadWriteCloser: c, p: p, first: p.armed}
	p.armed = false
	return cc
}

func (c *cutConn) Write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	k := p.writes
	p.writes++
	cut := k == p.cut || (c.first && !c.wrote)
	c.wrote = true
	if k == p.cut && p.twice {
		p.armed = true
	}
	p.mu.Unlock()
	if cut {
		c.Close()
		return 0, errCut
	}
	return c.ReadWriteCloser.Write(b)
}

// sweepPair builds a small running source — 128 pages of RAM, a dozen of
// them present and six dirtied in a loop — and a fresh destination.
func sweepPair(t *testing.T, kernel []byte) (*core.VM, *core.VM) {
	t.Helper()
	const ram = 128 * isa.PageSize
	pool := mem.NewPool(4 * 128)
	src, err := core.NewVM(pool, core.Config{Name: "src", Mode: core.ModeHW, MemBytes: ram})
	if err != nil {
		t.Fatal(err)
	}
	guest.Dirty(0, 6, 500).Apply(src)
	if err := src.Boot(kernel); err != nil {
		t.Fatal(err)
	}
	src.Step(100_000 / raceScale)
	if src.State != core.StateRunning {
		t.Fatalf("source state %v (err=%v)", src.State, src.Err)
	}
	dst, err := core.NewVM(pool, core.Config{Name: "dst", Mode: core.ModeHW, MemBytes: ram})
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// sweepBackoff is the sweep's base retry backoff in cycles.
const sweepBackoff = 20_000

// sweepCase is one migration mode of the sweep.
type sweepCase struct {
	name  string
	mode  Mode
	chunk int
}

// sweepRun migrates one fresh pair under plan and checks the outcome: the
// migration either completes with the destination running on exactly the
// paused source's state, or ends in ErrAborted with the source rolled back
// bit for bit and the destination untouched. Post-copy destinations run
// on and demand-fault before the check; a page the destination guest
// wrote since is exempt from the byte comparison. It returns whether the
// migration completed, and its downtime.
func sweepRun(t *testing.T, kernel []byte, tc sweepCase, plan *cutPlan, budget uint64) (completed bool, downtime uint64) {
	t.Helper()
	src, dst := sweepPair(t, kernel)
	var probe *vmSnap
	opt := DefaultStreamOptions()
	opt.Mode = tc.mode
	opt.PostCopyPushChunk = tc.chunk
	opt.StopThresholdPages = 0 // pre-copy runs every round
	opt.MaxRounds = 2
	opt.BackoffCycles = sweepBackoff // the running source executes through it
	opt.DowntimeBudget = budget
	opt.Wire = PipeWire(plan.wrap)
	opt.PauseProbe = func() { s := snapVM(src); probe = &s }
	rep, err := StreamMigrate(src, dst, opt)
	if errors.Is(err, ErrAborted) {
		if !rep.Aborted || src.State != core.StateRunning || dst.State != core.StateCreated {
			t.Fatalf("abort left aborted=%v source %v destination %v", rep.Aborted, src.State, dst.State)
		}
		if probe != nil && snapVM(src) != *probe {
			t.Fatalf("rollback is not bit-for-bit")
		}
		return false, 0
	}
	if err != nil {
		t.Fatalf("migration failed without rolling back: %v", err)
	}
	if src.State != core.StatePaused || dst.State != core.StateRunning {
		t.Fatalf("completed migration left source %v, destination %v (err=%v)", src.State, dst.State, dst.Err)
	}
	if tc.mode != PostCopy {
		want := snapVM(src)
		want.arch.Cycles += rep.DowntimeCycles
		if snapVM(dst) != want {
			t.Fatalf("destination differs from the paused source (+downtime)")
		}
	} else {
		dst.Step(100_000 / raceScale)
		for gfn := uint64(0); gfn < src.Mem.Pages() && dst.PageSource != nil && dst.State == core.StateRunning; gfn++ {
			if page, ok := dst.PageSource(gfn); ok {
				if err := dst.Mem.WriteRaw(gfn, page); err != nil {
					t.Fatal(err)
				}
			}
		}
		if dst.State != core.StateRunning || dst.PageSource != nil {
			t.Fatalf("destination %v (err=%v) after its demand faults; PageSource released: %v",
				dst.State, dst.Err, dst.PageSource == nil)
		}
		written := map[uint64]bool{}
		for _, gfn := range dst.Mem.CollectDirty(nil) {
			written[gfn] = true
		}
		a, b := make([]byte, isa.PageSize), make([]byte, isa.PageSize)
		for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
			if src.Mem.Frame(gfn) == mem.NoFrame || written[gfn] {
				continue
			}
			src.Mem.ReadRaw(gfn, a)
			dst.Mem.ReadRaw(gfn, b)
			if dst.Mem.Frame(gfn) == mem.NoFrame || !bytes.Equal(a, b) {
				t.Fatalf("gfn %d did not land as the source held it", gfn)
			}
		}
	}
	return true, rep.DowntimeCycles
}

// TestStreamCutPointSweep cuts the wire at every write of a small
// migration, in every mode: each write of a clean run alone, and each
// together with the first write of the connection dialed after it — which
// after the commit is the source's welcome on the destination's redial.
// Every run must resume to a byte-identical running destination or roll
// the source back. Single cuts run under a downtime budget that admits the
// clean brown-out but not one retry's backoff, so a cut during the
// brown-out takes the rollback path; double cuts run unbudgeted, and every
// one of them must resume.
func TestStreamCutPointSweep(t *testing.T) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []sweepCase{
		{"precopy", PreCopy, 0},
		{"stopandcopy", StopAndCopy, 0},
		{"postcopy-push", PostCopy, 2},
		{"postcopy-demand", PostCopy, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := &cutPlan{cut: -1}
			_, downtime := sweepRun(t, kernel, tc, clean, 0)
			budget := downtime + sweepBackoff/2
			var completed, aborted int
			for k := 0; k < clean.writes; k++ {
				t.Run(fmt.Sprintf("cut%d", k), func(t *testing.T) {
					if ok, _ := sweepRun(t, kernel, tc, &cutPlan{cut: k}, budget); ok {
						completed++
					} else {
						aborted++
					}
				})
				t.Run(fmt.Sprintf("cut%d-and-next", k), func(t *testing.T) {
					if ok, _ := sweepRun(t, kernel, tc, &cutPlan{cut: k, twice: true}, 0); !ok {
						t.Fatalf("an unbudgeted migration rolled back after two cuts")
					}
				})
			}
			t.Logf("%d writes; single cuts: %d completed, %d rolled back", clean.writes, completed, aborted)
			if aborted == 0 {
				t.Errorf("no single cut reached the rollback path")
			}
		})
	}
}

// outageConn passes the first n writes of a source half and fails every
// later one: the source host drops off the network for good.
type outageConn struct {
	io.ReadWriteCloser
	n int
}

func (c *outageConn) Write(b []byte) (int, error) {
	if c.n == 0 {
		c.Close()
		return 0, errCut
	}
	c.n--
	return c.ReadWriteCloser.Write(b)
}

// TestPostCopyOutageSpendsEveryAttempt: after the commit the source drops
// off the network just as the destination's first demand pull is
// answered, and no redial can reach it. The pull and then the background
// push each spend all MaxAttempts attempts — a failed redial is one failed
// attempt, not the end — and every failed attempt counts in Retries,
// before the destination stops with the error.
func TestPostCopyOutageSpendsEveryAttempt(t *testing.T) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := sweepPair(t, kernel)
	opt := DefaultStreamOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 1
	opt.MaxAttempts = 3
	dials := 0
	// The source writes hello, arch, commit and the first chunk's pages
	// and chunk-done; the guest's first Step then pulls a page.
	pipe := PipeWire(func(c io.ReadWriteCloser) io.ReadWriteCloser { return &outageConn{c, 5} })
	opt.Wire = func() (io.ReadWriteCloser, io.ReadWriteCloser, error) {
		if dials++; dials > 1 {
			return nil, nil, errors.New("source unreachable")
		}
		return pipe()
	}
	rep, err := StreamMigrate(src, dst, opt)
	if err == nil || errors.Is(err, ErrAborted) || dst.State != core.StateError {
		t.Fatalf("want the destination lost post-commit, got err %v, destination %v", err, dst.State)
	}
	if !strings.Contains(dst.Err.Error(), "demand pull") {
		t.Fatalf("the outage did not meet a demand pull first: %v", dst.Err)
	}
	if want := uint64(2 * opt.MaxAttempts); rep.Retries != want {
		t.Errorf("Retries %d, want %d: the pull's and the push's MaxAttempts failed attempts each", rep.Retries, want)
	}
	if want := 1 + 2*(opt.MaxAttempts-1); dials != want {
		t.Errorf("%d dials, want %d: every failed attempt but the last redials", dials, want)
	}
}
