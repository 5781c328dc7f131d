package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/sched"
	"govisor/internal/snapshot"
	"govisor/internal/storage"
	"govisor/internal/tlb"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// Micro-drivers are tight timed loops over public functions on prepared
// state. Each runs with the workload whose layer it explains; none feeds an
// end-to-end metric. The seed shuffles their address streams.

// microBudget is the timed share of one micro-driver.
const microBudget = 60 * time.Millisecond

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink uint64

// nsPerOp times body — which performs ops operations — and returns the
// median nanoseconds per operation over repeated batches. A batch repeats
// body until it spans well over the clock's resolution.
func nsPerOp(p params, ops int, body func()) float64 {
	budget := microBudget
	if p.quick {
		budget /= 10
	}
	body() // warm caches and lazy state
	batch := func(reps int) time.Duration {
		t := time.Now()
		for i := 0; i < reps; i++ {
			body()
		}
		return time.Since(t)
	}
	reps := 1
	for batch(reps) < 200*time.Microsecond {
		reps *= 2
	}
	var batches []float64
	for start := time.Now(); len(batches) < 5 || time.Since(start) < budget; {
		batches = append(batches, float64(batch(reps).Nanoseconds())/float64(reps*ops))
	}
	return median(batches)
}

// microDrivers maps a workload to the micro-drivers run in its traced pass.
var microDrivers = map[string]func(p params, out map[string]float64) error{
	"compute":   microCompute,
	"memory":    microMemory,
	"dataplane": microDataplane,
	"fleet":     microFleet,
}

func microCompute(p params, out map[string]float64) error {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return err
	}
	words := make([]uint32, len(kernel)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(kernel[4*i:])
	}
	out["isa.decode_ns_per_op"] = nsPerOp(p, len(words), func() {
		for _, w := range words {
			sink += uint64(isa.Decode(w).Op)
		}
	})
	return nil
}

const (
	microRAM = 32 << 20
	hitPages = 8    // fits every memo and the TLB
	missPage = 4096 // 16× the TLB reach
)

// pagedVM boots the universal kernel's page tables on a VM of the given
// mode and switches paging on, without running the guest.
func pagedVM(mode core.Mode) (*core.VM, error) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	vm, err := core.NewVM(mem.NewPool(2*microRAM>>isa.PageShift),
		core.Config{Name: "micro-" + mode.String(), Mode: mode, MemBytes: microRAM, EagerMem: true})
	if err != nil {
		return nil, err
	}
	if err := vm.Boot(kernel); err != nil {
		return nil, err
	}
	vm.CPU.WriteCSR(isa.CSRSatp, vm.Params[gabi.PSatp])
	return vm, nil
}

// pageStream returns n page-aligned addresses above the kernel, in the
// seed's order.
func pageStream(p params, salt uint64, n int) []uint64 {
	vas := make([]uint64, n)
	for i, pg := range p.stream(salt).perm(n) {
		vas[i] = uint64(64+pg) << isa.PageShift
	}
	return vas
}

func microMemory(p params, out map[string]float64) error {
	hit := pageStream(p, 10, hitPages)
	miss := pageStream(p, 11, missPage)

	var failed error
	translate := func(vm *core.VM, vas []uint64) func() {
		return func() {
			for _, va := range vas {
				gpa, _, f := vm.MMUCtx.Translate(va|8, isa.AccRead, false)
				if f != nil {
					failed = f
				}
				sink += gpa
			}
		}
	}
	for _, m := range []struct {
		mode   core.Mode
		metric string
	}{
		{core.ModeNative, "mmu.translate_miss_direct_ns_per_op"},
		{core.ModeTrap, "mmu.translate_miss_shadow_ns_per_op"},
		{core.ModeHW, "mmu.translate_miss_nested_ns_per_op"},
	} {
		vm, err := pagedVM(m.mode)
		if err != nil {
			return err
		}
		if sh := vm.MMUCtx.Shadow; sh != nil {
			// Derive every shadow entry up front: the loop then measures
			// the TLB-miss path, not the fill exit.
			root := isa.SatpPPN(vm.MMUCtx.Satp)
			for _, va := range miss {
				if _, f := sh.Fill(root, va, isa.AccRead, false); f != nil {
					return fmt.Errorf("shadow fill %#x: %v", va, f)
				}
			}
		}
		out[m.metric] = nsPerOp(p, len(miss), translate(vm, miss))
		if m.mode == core.ModeHW {
			out["mmu.translate_hit_ns_per_op"] = nsPerOp(p, len(hit)*64, func() {
				for i := 0; i < 64; i++ {
					translate(vm, hit)()
				}
			})
			out["mmu.translate_write_ns_per_op"] = nsPerOp(p, len(hit)*64, func() {
				for i := 0; i < 64; i++ {
					for _, va := range hit {
						gpa, _, f := vm.MMUCtx.TranslateWrite(va|8, false)
						if f != nil {
							failed = f
						}
						sink += gpa
					}
				}
			})
		}
	}
	if failed != nil {
		return fmt.Errorf("micro translate: %v", failed)
	}

	tl := tlb.NewDefault()
	out["tlb.insert_ns_per_op"] = nsPerOp(p, len(miss), func() {
		for _, va := range miss {
			tl.Insert(1, va, va>>isa.PageShift, 0xFF, false)
		}
	})
	for _, va := range hit {
		tl.Insert(1, va, va>>isa.PageShift, 0xFF, false)
	}
	out["tlb.lookup_ns_per_op"] = nsPerOp(p, len(hit)*64, func() {
		for i := 0; i < 64; i++ {
			for _, va := range hit {
				e, _ := tl.Lookup(1, va)
				sink += e.PPN
			}
		}
	})

	pool := mem.NewPool(2 * microRAM >> isa.PageShift)
	g := mem.NewGuestPhys(pool, microRAM)
	if err := g.PopulateAll(); err != nil {
		return err
	}
	pages := pageStream(p, 12, 64)
	for _, gpa := range pages {
		g.WriteUint(gpa, 8, gpa) // materialize the frames
	}
	out["mem.read_ns_per_op"] = nsPerOp(p, len(pages)*64, func() {
		for off := uint64(0); off < 64*8; off += 8 {
			for _, gpa := range pages {
				v, _ := g.ReadUint(gpa+off, 8)
				sink += v
			}
		}
	})
	out["mem.write_ns_per_op"] = nsPerOp(p, len(pages)*64, func() {
		for off := uint64(0); off < 64*8; off += 8 {
			for _, gpa := range pages {
				if f := g.WriteUint(gpa+off, 8, off); f != nil {
					failed = f
				}
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("micro mem: %v", failed)
	}
	out["mem.pool_alloc_ns_per_op"] = nsPerOp(p, 256, func() {
		var hfns [256]uint64
		for i := range hfns {
			hfns[i], _ = pool.Alloc()
		}
		for _, hfn := range hfns {
			pool.DecRef(hfn)
		}
	})
	return nil
}

// microFrame is the frame size of the device micro-drivers: the dataplane
// workload's mean.
const microFrame = 256

func microDataplane(p params, out map[string]float64) error {
	pool := mem.NewPool(2 * netRAM >> isa.PageShift)
	g := mem.NewGuestPhys(pool, netRAM)
	if err := g.PopulateAll(); err != nil {
		return err
	}

	// Span DMA: frame-sized copies at seed-dealt offsets, some crossing pages.
	r := p.stream(20)
	offs := make([]uint64, 1024)
	for i := range offs {
		offs[i] = 0x100000 + uint64(r.intn(0x100000-microFrame))
	}
	buf := make([]byte, microFrame)
	var fault *mem.Fault
	spanMiBs := func(ns float64) float64 { return microFrame / ns * 1e9 / (1 << 20) }
	out["mem.write_span_mib_per_s"] = spanMiBs(nsPerOp(p, len(offs), func() {
		for _, o := range offs {
			if f := g.WriteSpan(o, buf); f != nil {
				fault = f
			}
		}
	}))
	out["mem.read_span_mib_per_s"] = spanMiBs(nsPerOp(p, len(offs), func() {
		for _, o := range offs {
			if f := g.ReadSpan(o, buf); f != nil {
				fault = f
			}
		}
	}))
	if fault != nil {
		return fmt.Errorf("micro span: %v", fault)
	}

	// virtio-net TX chains from the host-side driver into a switch whose
	// only other port discards.
	sw := vnet.NewSwitch()
	src, dst := vnet.MACForVM(1), vnet.MACForVM(2)
	sw.Learn(dst, sw.NewPort())
	net := virtio.NewNet(sw.NewPort())
	ndev := virtio.NewMMIODev("micro-net", net, g, nil)
	net.Bind(ndev)
	tx, data, err := virtio.NewDriver(g, ndev, virtio.NetTXQueue, 0x10000, 64)
	if err != nil {
		return err
	}
	frame := make([]byte, virtio.NetHeaderSize, virtio.NetHeaderSize+microFrame)
	frame = append(frame, vnet.BuildFrame(dst, src, make([]byte, microFrame-12))...)
	g.Write(data, frame)
	var derr error
	chains := func(d *virtio.Driver, chain []virtio.DescBuf) func() {
		return func() {
			for i := 0; i < netBatch; i++ {
				if _, err := d.Submit(chain); err != nil {
					derr = err
				}
			}
			d.Kick()
			for i := 0; i < netBatch; i++ {
				if _, _, ok := d.PollUsed(); !ok {
					derr = fmt.Errorf("chain %d of a batch never completed", i)
				}
			}
			d.AckInterrupt()
		}
	}
	out["virtio.net_chain_ns_per_op"] = nsPerOp(p, netBatch,
		chains(tx, []virtio.DescBuf{{Addr: data, Len: uint32(len(frame))}}))

	// virtio-blk write chains: header, one sector, status.
	blk := virtio.NewBlk(storage.NewRaw(wrapSectors))
	bdev := virtio.NewMMIODev("micro-blk", blk, g, nil)
	blk.Bind(bdev)
	bq, bdata, err := virtio.NewDriver(g, bdev, 0, 0x20000, 64)
	if err != nil {
		return err
	}
	var hdr [virtio.BlkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], virtio.BlkTOut)
	binary.LittleEndian.PutUint64(hdr[8:], 7)
	g.Write(bdata, hdr[:])
	out["virtio.blk_chain_ns_per_op"] = nsPerOp(p, netBatch, chains(bq, []virtio.DescBuf{
		{Addr: bdata, Len: virtio.BlkHeaderSize},
		{Addr: bdata + 512, Len: virtio.SectorSize},
		{Addr: bdata + 1024, Len: 1, Device: true},
	}))
	if derr != nil {
		return fmt.Errorf("micro virtio: %v", derr)
	}
	if net.TxFrames == 0 || blk.SectorsWritten == 0 || blk.Errors != 0 {
		return fmt.Errorf("micro virtio: %d frames sent, %d sectors written, %d blk errors",
			net.TxFrames, blk.SectorsWritten, blk.Errors)
	}

	// The switch alone: deferred sends from one port, one barrier flush.
	sw2 := vnet.NewSwitch()
	sw2.SetDeferred(true)
	from := sw2.NewPort()
	sw2.Learn(dst, sw2.NewPort())
	wire := frame[virtio.NetHeaderSize:]
	const burst = 512
	sendFlush := func() {
		for i := 0; i < burst; i++ {
			from.Send(wire)
		}
		sw2.Flush()
	}
	out["vnet.send_flush_ns_per_frame"] = nsPerOp(p, burst, sendFlush)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 16; i++ {
		sendFlush()
	}
	runtime.ReadMemStats(&m1)
	out["vnet.alloc_bytes_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (16 * burst)
	return nil
}

func microFleet(p params, out map[string]float64) error {
	for _, pol := range []struct {
		name string
		new  func() core.Scheduler
	}{
		{"rr", func() core.Scheduler { return sched.NewRoundRobin(fleetQuantum) }},
		{"credit", func() core.Scheduler { return sched.NewCredit() }},
		{"cfs", func() core.Scheduler { return sched.NewCFS() }},
	} {
		for _, n := range []int{8, 256} {
			s := pol.new()
			for _, id := range p.stream(30).perm(n) {
				s.Add(id, uint64(64+id%4*64), 0)
			}
			out[fmt.Sprintf("sched.%s_next_ns_per_op_%d", pol.name, n)] = nsPerOp(p, 256, func() {
				for i := 0; i < 256; i++ {
					id, q, ok := s.Next()
					if ok {
						s.Account(id, q)
					}
					sink += uint64(id)
				}
			})
		}
	}

	// Snapshot an 8 MiB VM whose RAM is half seed-dealt data, half zero.
	kernel, err := guest.BuildKernel()
	if err != nil {
		return err
	}
	cfg := core.Config{Name: "micro-snap", Mode: core.ModeHW, MemBytes: fleetRAM, EagerMem: true}
	pool := mem.NewPool(8 * fleetRAM >> isa.PageShift)
	vm, err := core.NewVM(pool, cfg)
	if err != nil {
		return err
	}
	if err := vm.Boot(kernel); err != nil {
		return err
	}
	r := p.stream(31)
	var page [isa.PageSize]byte
	for gfn := uint64(256); gfn < 256+1024; gfn++ {
		for i := 0; i < len(page); i += 8 {
			binary.LittleEndian.PutUint64(page[i:], r.next())
		}
		if err := vm.Mem.WriteRaw(gfn, page[:]); err != nil {
			return err
		}
	}
	var img bytes.Buffer
	var serr error
	mibPerS := func(ns float64) float64 { return float64(fleetRAM>>20) / ns * 1e9 }
	out["snapshot.save_mib_per_s"] = mibPerS(nsPerOp(p, 1, func() {
		img.Reset()
		if err := snapshot.Save(vm, &img); err != nil {
			serr = err
		}
	}))
	// Restore needs a freshly created VM each time; only Restore is timed.
	var restores []float64
	for i := 0; i < 5; i++ {
		dst, err := core.NewVM(pool, cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		if err := snapshot.Restore(dst, bytes.NewReader(img.Bytes())); err != nil {
			serr = err
		}
		restores = append(restores, float64(time.Since(t).Nanoseconds()))
		dst.Release()
	}
	if serr != nil {
		return fmt.Errorf("micro snapshot: %v", serr)
	}
	out["snapshot.restore_mib_per_s"] = mibPerS(median(restores))
	return nil
}
