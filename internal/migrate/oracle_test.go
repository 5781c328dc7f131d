package migrate

// The in-process reference for the migration algorithms: each one copies
// pages straight from the source's RAM into the destination's and charges
// the logical transfer cost, with no wire in between. It is the oracle the
// streamed engine must match byte for byte over a clean transport
// (TestStreamFaultFreeMatchesInProcess), so it stays this plain.

import (
	"fmt"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// refMigrate moves the running guest in src to dst without a transport.
func refMigrate(src, dst *core.VM, opt Options) (Report, error) {
	if err := validatePair(src, dst); err != nil {
		return Report{}, err
	}
	switch opt.Mode {
	case PreCopy:
		return refPreCopy(src, dst, opt)
	case StopAndCopy:
		return refStopAndCopy(src, dst, opt)
	case PostCopy:
		return refPostCopy(src, dst, opt)
	}
	return Report{}, fmt.Errorf("migrate: unknown mode %d", opt.Mode)
}

// refSendPages transfers the given source pages into dst, running the source
// guest concurrently when interleave is true. It returns the transfer
// cycles.
func refSendPages(src, dst *core.VM, gfns []uint64, link Link, interleave bool, rep *Report) (uint64, error) {
	if len(gfns) == 0 {
		return 0, nil
	}
	buf := make([]byte, isa.PageSize)
	var cycles uint64
	for _, gfn := range gfns {
		src.Mem.ReadRaw(gfn, buf)
		if err := dst.Mem.WriteRaw(gfn, buf); err != nil {
			return cycles, fmt.Errorf("migrate: writing gfn %d: %w", gfn, err)
		}
		cycles += link.TxCycles(pageWireSize)
		rep.BytesSent += pageWireSize
	}
	if interleave && src.State == core.StateRunning {
		src.Step(cycles)
	} else {
		// Guest paused: the time still elapses on the wall clock.
		src.CPU.AddCycles(cycles)
	}
	return cycles, nil
}

func refPreCopy(src, dst *core.VM, opt Options) (Report, error) {
	rep := Report{Mode: PreCopy}
	// Round 0: clear the dirty log and send every present page while the
	// guest keeps running.
	src.Mem.CollectDirty(nil)
	all := presentPages(src)
	c, err := refSendPages(src, dst, all, opt.Link, true, &rep)
	if err != nil {
		return rep, err
	}
	rep.TotalCycles += c
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(all)), Cycles: c})

	// Iterative rounds: resend what got dirtied while we were sending.
	// The convergence check peeks at the dirty count without clearing it,
	// so the residue is still logged for the final brown-out transfer.
	var dirty []uint64
	for round := 1; round <= opt.MaxRounds; round++ {
		if src.Mem.DirtyCount() <= opt.StopThresholdPages {
			rep.Converged = true
			break
		}
		dirty = src.Mem.CollectDirty(dirty[:0])
		c, err := refSendPages(src, dst, dirty, opt.Link, true, &rep)
		if err != nil {
			return rep, err
		}
		rep.TotalCycles += c
		rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(dirty)), Cycles: c})
	}

	// Brown-out: pause, send the final dirty set + CPU state, switch over.
	src.Pause()
	dirty = src.Mem.CollectDirty(dirty[:0])
	c, err = refSendPages(src, dst, dirty, opt.Link, false, &rep)
	if err != nil {
		return rep, err
	}
	c += opt.Link.TxCycles(cpuStateWireSize)
	rep.BytesSent += cpuStateWireSize
	rep.DowntimeCycles = c
	rep.TotalCycles += c
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(dirty)), Cycles: c})

	dst.AdoptArch(src.CaptureArch())
	dst.CPU.AddCycles(c) // the destination clock absorbs the downtime
	return rep, nil
}

func refStopAndCopy(src, dst *core.VM, opt Options) (Report, error) {
	rep := Report{Mode: StopAndCopy, Converged: true}
	src.Pause()
	all := presentPages(src)
	c, err := refSendPages(src, dst, all, opt.Link, false, &rep)
	if err != nil {
		return rep, err
	}
	c += opt.Link.TxCycles(cpuStateWireSize)
	rep.BytesSent += cpuStateWireSize
	rep.Rounds = append(rep.Rounds, Round{Pages: uint64(len(all)), Cycles: c})
	rep.DowntimeCycles = c
	rep.TotalCycles = c
	dst.AdoptArch(src.CaptureArch())
	dst.CPU.AddCycles(c)
	return rep, nil
}

func refPostCopy(src, dst *core.VM, opt Options) (Report, error) {
	rep := Report{Mode: PostCopy, Converged: true}
	src.Pause()

	// Switchover immediately: only the CPU state crosses during downtime.
	c := opt.Link.TxCycles(cpuStateWireSize)
	rep.BytesSent += cpuStateWireSize
	rep.DowntimeCycles = c
	rep.TotalCycles = c
	dst.AdoptArch(src.CaptureArch())
	dst.CPU.AddCycles(c)

	// Demand path: every not-present fault on the destination pulls the
	// page from the source, paying RTT + transfer. The source is paused, so
	// its present set is frozen; once `sent` covers it the hook clears
	// itself — otherwise demand-only mode would pin the source forever.
	sent := make(map[uint64]bool)
	presentTotal := src.Mem.Present()
	buf := make([]byte, isa.PageSize)
	dst.PageSource = func(gfn uint64) ([]byte, bool) {
		if sent[gfn] {
			return nil, false // already pushed: plain demand-zero fill
		}
		if src.Mem.Frame(gfn) == mem.NoFrame {
			return nil, false
		}
		src.Mem.ReadRaw(gfn, buf)
		sent[gfn] = true
		if uint64(len(sent)) >= presentTotal {
			dst.PageSource = nil
		}
		cost := opt.Link.RTTCycles + opt.Link.TxCycles(pageWireSize)
		dst.CPU.AddCycles(cost)
		rep.TotalCycles += cost
		rep.BytesSent += pageWireSize
		rep.RemoteFills++
		page := make([]byte, isa.PageSize)
		copy(page, buf)
		return page, true
	}

	// Background push: interleave destination execution with proactive
	// transfers until every source page has landed.
	if opt.PostCopyPushChunk > 0 {
		remaining := presentPages(src)
		for len(remaining) > 0 {
			chunk := opt.PostCopyPushChunk
			if chunk > len(remaining) {
				chunk = len(remaining)
			}
			var pushed uint64
			for _, gfn := range remaining[:chunk] {
				if sent[gfn] {
					continue
				}
				src.Mem.ReadRaw(gfn, buf)
				if err := dst.Mem.WriteRaw(gfn, buf); err != nil {
					return rep, err
				}
				sent[gfn] = true
				pushed += pageWireSize
				rep.BytesSent += pageWireSize
			}
			remaining = remaining[chunk:]
			cost := opt.Link.TxCycles(pushed)
			rep.TotalCycles += cost
			if dst.State == core.StateRunning {
				dst.Step(cost)
			}
		}
		dst.PageSource = nil
	}
	return rep, nil
}
