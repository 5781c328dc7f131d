// Package migrate implements live migration of govisor VMs: iterative
// pre-copy with dirty-page tracking (the NSDI'05 design), stop-and-copy as
// the baseline, and post-copy with demand paging over a simulated
// rate-limited link. Experiments F7, F8 and A3 run on top of it, and the
// M7 evacuation drill is a test of this package (drill_test.go). There is
// one engine, StreamMigrate (stream.go, over the wire format of wire.go);
// Migrate runs it over a clean net.Pipe.
//
// Time is simulated: N logical bytes over the link (pageWireSize a page,
// cpuStateWireSize for the CPU state, however the wire encodes them) cost
// N·CyclesPerSecond⁄BytesPerSec guest cycles, and during pre-copy rounds the
// source guest keeps executing for exactly the cycles the transfer takes —
// the interleaving that makes convergence a race between link rate and
// dirty rate.
package migrate

import (
	"fmt"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/vcpu"
)

// Link models the migration channel.
type Link struct {
	BytesPerSec uint64 // sustained throughput
	RTTCycles   uint64 // round-trip latency (post-copy page pulls)
}

// Gbps builds a link of the given gigabits per second with the given RTT in
// microseconds.
func Gbps(gbits float64, rttMicros uint64) Link {
	return Link{
		BytesPerSec: uint64(gbits * 1e9 / 8),
		RTTCycles:   rttMicros * (vcpu.CyclesPerSecond / 1_000_000),
	}
}

// TxCycles returns the cycles needed to push n bytes through the link.
func (l Link) TxCycles(n uint64) uint64 {
	if l.BytesPerSec == 0 {
		return 0
	}
	return n * vcpu.CyclesPerSecond / l.BytesPerSec
}

// pageWireSize is a page plus header overhead on the wire.
const pageWireSize = isa.PageSize + 16

// cpuStateWireSize approximates the architectural state transfer.
const cpuStateWireSize = 1024

// Mode selects the migration algorithm.
type Mode uint8

// Migration modes.
const (
	PreCopy Mode = iota
	StopAndCopy
	PostCopy
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PreCopy:
		return "pre-copy"
	case StopAndCopy:
		return "stop-and-copy"
	case PostCopy:
		return "post-copy"
	}
	return "mode?"
}

// Options configures a migration.
type Options struct {
	Mode Mode
	Link Link
	// MaxRounds bounds pre-copy iterations before forcing stop-and-copy.
	MaxRounds int
	// StopThresholdPages ends pre-copy early once a round's dirty set is
	// this small.
	StopThresholdPages uint64
	// PostCopyPushChunk is how many background pages the source pushes
	// between destination execution slices (0 ⇒ demand-only).
	PostCopyPushChunk int
}

// DefaultOptions returns pre-copy over a 10 Gb link with Xen-like bounds.
func DefaultOptions() Options {
	return Options{
		Mode:               PreCopy,
		Link:               Gbps(10, 50),
		MaxRounds:          30,
		StopThresholdPages: 64,
	}
}

// Round records one pre-copy iteration.
type Round struct {
	Pages  uint64
	Cycles uint64
}

// Report is the outcome of a migration.
type Report struct {
	Mode           Mode
	TotalCycles    uint64 // wall time from start to destination running
	DowntimeCycles uint64 // guest paused (brown-out) time
	BytesSent      uint64
	Rounds         []Round
	RemoteFills    uint64 // post-copy demand fetches
	Converged      bool   // pre-copy reached the threshold before MaxRounds
}

// Migrate moves the running guest in src to dst by StreamMigrate over a
// clean net.Pipe with the default retry policy. dst must be a freshly
// created, unbooted VM (same config and devices). On return dst is running
// and src is paused. Demand-only post-copy (PostCopyPushChunk 0) leaves one
// goroutine serving the source's pages to dst.PageSource until every page
// present at the switchover has been pulled; other modes leave none.
//
//govisor:serialonly(drives two VMs at once; migration rounds run outside worker context)
func Migrate(src, dst *core.VM, opt Options) (Report, error) {
	so := DefaultStreamOptions()
	so.Options = opt
	rep, err := StreamMigrate(src, dst, so)
	return rep.Report, err
}

// validatePair vets a migration pair: dst must be a receiver for src
// (core.VM.CheckReceiver), and src must be live.
func validatePair(src, dst *core.VM) error {
	if err := dst.CheckReceiver(src, src.Mode, src.Mem.Pages()); err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	if src.State != core.StateRunning && src.State != core.StateIdle {
		return fmt.Errorf("migrate: source is %v", src.State)
	}
	return nil
}

func presentPages(vm *core.VM) []uint64 {
	out := make([]uint64, 0, vm.Mem.Present())
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		if vm.Mem.Frame(gfn) != mem.NoFrame {
			out = append(out, gfn)
		}
	}
	return out
}
