package bench

import (
	"fmt"
	"io"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/metrics"
	"govisor/internal/mmu"
	"govisor/internal/sched"
	"govisor/internal/snapshot"
	"govisor/internal/storage"
)

// schedHost builds a host with n CPU-hog VMs plus, optionally, one
// latency-sensitive timer VM, under the given scheduler.
func schedHost(s core.LeaseScheduler, hogs int, withLatency bool, pcpus int) (*core.Host, error) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	const vmRAM = 2 << 20
	h := core.NewHost(uint64(hogs+4)*(vmRAM>>isa.PageShift), pcpus, s)
	for i := 0; i < hogs; i++ {
		vm, err := h.CreateVM(core.Config{
			Name: fmt.Sprintf("hog%d", i), Mode: core.ModeHW, MemBytes: vmRAM,
		})
		if err != nil {
			return nil, err
		}
		guest.Dirty(0, 8, 100).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		h.AddToScheduler(i, 256, 0)
	}
	if withLatency {
		vm, err := h.CreateVM(core.Config{
			Name: "latency", Mode: core.ModeHW, MemBytes: vmRAM,
		})
		if err != nil {
			return nil, err
		}
		guest.Idle(50, 400_000).Apply(vm) // 50 ticks, 0.4 ms period
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		h.AddToScheduler(hogs, 256, 0)
	}
	return h, nil
}

// F11SchedFairness: fairness and wakeup latency, credit vs CFS vs RR.
func F11SchedFairness() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"scheduler", "Jain fairness (4 hogs)", "latency VM ticks", "avg wakeup latency (cyc)",
	}}
	scheds := []struct {
		name string
		mk   func() core.LeaseScheduler
	}{
		{"round-robin", func() core.LeaseScheduler { return sched.NewRoundRobin(core.DefaultQuantum) }},
		{"credit", func() core.LeaseScheduler { return sched.NewCredit() }},
		{"cfs", func() core.LeaseScheduler { return sched.NewCFS() }},
	}
	for _, sc := range scheds {
		h, err := schedHost(sc.mk(), 4, true, 1)
		if err != nil {
			return nil, err
		}
		h.RunParallel(1, 150_000_000)
		shares := make([]float64, 4)
		for i := 0; i < 4; i++ {
			shares[i] = float64(h.VMs[i].Result(gabi.PResult0))
		}
		lat := h.VMs[4]
		ticks := lat.Result(gabi.PResult0)
		avgLat := "-"
		if ticks > 0 {
			avgLat = fmt.Sprintf("%.0f", float64(lat.Result(gabi.PResult1))/float64(ticks))
		}
		t.AddRow(sc.name, fmt.Sprintf("%.3f", metrics.JainIndex(shares)),
			fmt.Sprint(ticks), avgLat)
	}
	return t, nil
}

// T12WeightCap: measured CPU share vs configured weight/cap under credit.
func T12WeightCap() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"config", "vm", "weight", "cap", "measured share",
	}}
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	run := func(label string, weights []uint64, caps []uint64) error {
		const vmRAM = 2 << 20
		cs := sched.NewCredit()
		h := core.NewHost(uint64(len(weights)+2)*(vmRAM>>isa.PageShift), 1, cs)
		for i := range weights {
			vm, err := h.CreateVM(core.Config{
				Name: fmt.Sprintf("vm%d", i), Mode: core.ModeHW, MemBytes: vmRAM,
			})
			if err != nil {
				return err
			}
			guest.Dirty(0, 8, 100).Apply(vm)
			if err := vm.Boot(kernel); err != nil {
				return err
			}
			h.AddToScheduler(i, weights[i], caps[i])
		}
		h.RunParallel(1, 200_000_000)
		var total uint64
		works := make([]uint64, len(weights))
		for i := range weights {
			works[i] = h.VMs[i].Result(gabi.PResult0)
			total += works[i]
		}
		for i := range weights {
			capLabel := "-"
			if caps[i] > 0 {
				capLabel = fmt.Sprintf("%d%%", caps[i])
			}
			t.AddRow(label, fmt.Sprint(i), fmt.Sprint(weights[i]), capLabel,
				fmt.Sprintf("%.1f%%", 100*float64(works[i])/float64(total)))
		}
		return nil
	}
	if err := run("2:1 weights", []uint64{512, 256}, []uint64{0, 0}); err != nil {
		return nil, err
	}
	if err := run("4:1 weights", []uint64{512, 128}, []uint64{0, 0}); err != nil {
		return nil, err
	}
	if err := run("25% cap", []uint64{256, 256}, []uint64{25, 0}); err != nil {
		return nil, err
	}
	return t, nil
}

// T13Consolidation: aggregate throughput vs VM count on a 4-core host.
func T13Consolidation() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"VMs", "aggregate work", "per-VM work", "scaling efficiency",
	}}
	var perVMBase float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		h, err := schedHost(sched.NewCredit(), n, false, 4)
		if err != nil {
			return nil, err
		}
		h.RunParallel(1, 100_000_000)
		var total uint64
		for _, vm := range h.VMs {
			total += vm.Result(gabi.PResult0)
		}
		per := float64(total) / float64(n)
		if n == 1 {
			perVMBase = per
		}
		ideal := perVMBase * float64(min(n, 4))
		t.AddRow(fmt.Sprint(n), fmt.Sprint(total),
			fmt.Sprintf("%.0f", per),
			fmt.Sprintf("%.0f%%", 100*float64(total)/ideal))
	}
	return t, nil
}

// A2ASIDFlush: TLB cost of address-space switches with and without ASID
// tagging (ablation). This is a mechanism-level microbenchmark: two address
// spaces over the same tables alternate every `switchEvery` accesses, as a
// guest context-switching between processes would.
func A2ASIDFlush() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"TLB tagging", "switches", "accesses", "tlb misses", "walk refs",
	}}
	const (
		wsPages     = 64
		rounds      = 64
		switchEvery = 1 // switch space every round
	)
	run := func(useASID bool) (misses, refs uint64, switches int, accesses int, err error) {
		g := mem.NewGuestPhys(mem.NewPool(4096), 16<<20)
		if err := g.PopulateAll(); err != nil {
			return 0, 0, 0, 0, err
		}
		tb, err := mmu.NewTableBuilder(g, 3000, 64)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if err := tb.IdentityMap(8<<20, isa.PTERead|isa.PTEWrite); err != nil {
			return 0, 0, 0, 0, err
		}
		ctx := mmu.NewContext(g, mmu.StyleDirect)
		ctx.UseASID = useASID
		satp := func(asid uint16) uint64 {
			return isa.MakeSatp(isa.SatpModePaged, asid, tb.RootPPN)
		}
		for r := 0; r < rounds; r++ {
			asid := uint16(1 + r%2)
			ctx.SetSatp(satp(asid)) // the world switch under test
			switches++
			for p := uint64(0); p < wsPages; p++ {
				if _, _, fault := ctx.Translate(p<<isa.PageShift, isa.AccRead, false); fault != nil {
					return 0, 0, 0, 0, fault
				}
				accesses++
			}
		}
		return ctx.TLB.Stats.Misses, ctx.Stats.WalkRefs, switches, accesses, nil
	}
	for _, useASID := range []bool{true, false} {
		misses, refs, switches, accesses, err := run(useASID)
		if err != nil {
			return nil, err
		}
		label := "ASIDs (tagged TLB)"
		if !useASID {
			label = "flush on switch"
		}
		t.AddRow(label, fmt.Sprint(switches), fmt.Sprint(accesses),
			fmt.Sprint(misses), fmt.Sprint(refs))
	}
	return t, nil
}

// A1ParaBatching: MMU hypercall batching (ablation; complements F5).
func A1ParaBatching() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{"mmu updates", "unbatched (cyc)", "batched (cyc)", "ratio"}}
	const iters = 4
	un, err := runKernel(core.ModePara, guest.PTChurn(iters, false), nil)
	if err != nil {
		return nil, err
	}
	ba, err := runKernel(core.ModePara, guest.PTChurn(iters, true), nil)
	if err != nil {
		return nil, err
	}
	cu, cb := region(un), region(ba)
	t.AddRow(fmt.Sprint(un.Stats.ParaMaps), fmt.Sprint(cu), fmt.Sprint(cb),
		fmt.Sprintf("%.2fx", float64(cu)/float64(cb)))
	return t, nil
}

// Helpers shared with bench_mem.go.

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func saveSnapshot(vm *core.VM, w io.Writer) error { return snapshot.Save(vm, w) }
func cloneVM(src, dst *core.VM) error             { return snapshot.Clone(src, dst) }

// F15COWDepth: read amplification and first-write cost vs snapshot chain
// depth. "Layer probes" counts every per-layer lookup a read performed —
// the read-amplification a deep chain causes; re-reading freshly written
// sectors shows the top layer short-circuiting the chain.
func F15COWDepth() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"chain depth", "cold-read layer probes", "copy-ups (128 writes)", "warm-read layer probes",
	}}
	base := storage.NewRaw(4096)
	buf := make([]byte, storage.SectorSize)
	for lba := uint64(0); lba < 1024; lba++ {
		buf[0] = byte(lba)
		base.WriteSector(lba, buf)
	}
	// chainProbes sums reads observed at every layer of the chain.
	chainProbes := func(top *storage.COW) uint64 {
		var total uint64
		var img storage.Image = top
		for {
			cow, ok := img.(*storage.COW)
			if !ok {
				total += img.(*storage.Raw).Reads
				return total
			}
			total += cow.Reads
			img = cow.Backing()
		}
	}
	resetProbes := func(top *storage.COW) {
		var img storage.Image = top
		for {
			cow, ok := img.(*storage.COW)
			if !ok {
				img.(*storage.Raw).Reads = 0
				return
			}
			cow.Reads, cow.ChainReads, cow.CopyUps = 0, 0, 0
			img = cow.Backing()
		}
	}
	layer := storage.NewCOW(base)
	for depth := 1; depth <= 8; depth *= 2 {
		for layer.Depth() < depth {
			layer = layer.Snapshot()
		}
		resetProbes(layer)
		// Cold reads: sectors only the base holds → walk the whole chain.
		for i := uint64(0); i < 256; i++ {
			layer.ReadSector(i*13%1024, buf)
		}
		cold := chainProbes(layer)
		resetProbes(layer)
		// First writes pay exactly one copy-up each.
		for i := uint64(0); i < 128; i++ {
			layer.WriteSector(i*29%1024, buf)
		}
		copyUps := layer.CopyUps
		resetProbes(layer)
		// Warm reads of the written sectors stop at the top layer.
		for i := uint64(0); i < 128; i++ {
			layer.ReadSector(i*29%1024, buf)
		}
		warm := chainProbes(layer)
		t.AddRow(fmt.Sprint(layer.Depth()),
			fmt.Sprint(cold), fmt.Sprint(copyUps), fmt.Sprint(warm))
	}
	return t, nil
}
