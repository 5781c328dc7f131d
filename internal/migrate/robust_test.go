package migrate

import (
	"strings"
	"testing"

	"govisor/internal/core"
	"govisor/internal/mem"
)

// TestMigrateRejectsSelfMigration: migrating a VM onto itself must be a
// clean error, not silent state corruption.
func TestMigrateRejectsSelfMigration(t *testing.T) {
	src, _ := pair(t, 8, 2000)
	if _, err := Migrate(src, src, DefaultOptions()); err == nil {
		t.Fatalf("self-migration accepted")
	} else if !strings.Contains(err.Error(), "same VM") {
		t.Fatalf("unexpected error: %v", err)
	}
	if src.State != core.StateRunning {
		t.Fatalf("rejected migration changed source state to %v", src.State)
	}
}

// TestMigrateRejectsBadStates: an invalid pair is a clean error that
// leaves both VMs as they were, not silent state corruption. Two VM shells
// over one guest-physical space would read and write the same frames.
func TestMigrateRejectsBadStates(t *testing.T) {
	cases := []struct {
		name    string
		setup   func(src, dst *core.VM) (*core.VM, *core.VM)
		wantErr string
	}{
		{"shared-guest-phys", func(src, dst *core.VM) (*core.VM, *core.VM) {
			alias := *dst
			alias.Mem = src.Mem
			return src, &alias
		}, "guest-physical"},
		{"halted-source", func(src, dst *core.VM) (*core.VM, *core.VM) {
			src.Pause()
			src.State = core.StateHalted
			return src, dst
		}, "source is"},
		{"booted-destination", func(src, dst *core.VM) (*core.VM, *core.VM) {
			dst.State = core.StateRunning
			return src, dst
		}, "destination is"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := tc.setup(pair(t, 8, 2000))
			srcState, dstState := src.State, dst.State
			if _, err := Migrate(src, dst, DefaultOptions()); err == nil {
				t.Fatalf("invalid pair accepted")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("unexpected error: %v", err)
			}
			if src.State != srcState || dst.State != dstState {
				t.Fatalf("rejected migration changed states: source %v→%v, destination %v→%v",
					srcState, src.State, dstState, dst.State)
			}
		})
	}
}

// TestPostCopyReportCountsDemandFills: demand-fill costs must land in
// rep.TotalCycles, not only on the destination clock. Regression for the
// undercount where the PageSource hook charged dst.CPU silently.
func TestPostCopyReportCountsDemandFills(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	opt := DefaultOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 8
	rep, err := Migrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteFills == 0 {
		t.Fatalf("push-interleaved post-copy produced no demand fills; test is vacuous")
	}
	fillCost := rep.RemoteFills * (opt.Link.RTTCycles + opt.Link.TxCycles(pageWireSize))
	if rep.TotalCycles < rep.DowntimeCycles+fillCost {
		t.Fatalf("TotalCycles %d omits demand-fill cost (downtime %d + fills %d)",
			rep.TotalCycles, rep.DowntimeCycles, fillCost)
	}
	verifyDestRuns(t, dst)
}

// TestPostCopyDemandOnlyReleasesSource: with no background push, the
// PageSource hook must clear itself once every present source page has
// been pulled — otherwise demand-only mode pins the source forever.
func TestPostCopyDemandOnlyReleasesSource(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	opt := DefaultOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 0 // demand-only
	if _, err := Migrate(src, dst, opt); err != nil {
		t.Fatal(err)
	}
	hook := dst.PageSource
	if hook == nil {
		t.Fatalf("demand-only post-copy did not install a PageSource")
	}
	// Pull every present source page through the hook, as destination
	// faults would.
	pages := src.Mem.Pages()
	var pulled uint64
	for gfn := uint64(0); gfn < pages; gfn++ {
		if src.Mem.Frame(gfn) == mem.NoFrame {
			if _, ok := hook(gfn); ok {
				t.Fatalf("hook served a page the source does not have (gfn %d)", gfn)
			}
			continue
		}
		if _, ok := hook(gfn); ok {
			pulled++
		}
	}
	if pulled != src.Mem.Present() {
		t.Fatalf("pulled %d pages, source has %d present", pulled, src.Mem.Present())
	}
	if dst.PageSource != nil {
		t.Fatalf("PageSource still set after all %d present pages pulled — source pinned forever", pulled)
	}
	// Re-pulling an already-sent page must fall back to demand-zero.
	if _, ok := hook(0); ok {
		t.Fatalf("hook re-served an already-transferred page")
	}
}
