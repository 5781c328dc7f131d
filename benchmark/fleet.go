package main

import (
	"fmt"
	"io"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/ksm"
	"govisor/internal/mem"
	"govisor/internal/migrate"
	"govisor/internal/sched"
	"govisor/internal/storage"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// fleetSizes are the frozen nominal sizes of the two RunParallel workloads.
var fleetSizes = map[string]map[string]uint64{
	"dataplane": {"net_vms": 8, "frames_per_vm": 292_864, "blk_sectors": 146_432},
	"fleet": {"vms": 12, "pcpus": 4, "compute_iters": 42_000, "store_iters": 6_040, "mixed_iters": 7_790,
		"touch_iters": 660, "frames_per_vm": 125_440, "blk_sectors": 96_944, "migrate_mib": 8},
}

const (
	// fleetWorkers is fixed, not nproc-derived: the measured configuration.
	fleetWorkers = 2
	// fleetQuantum bounds one lease, so one barrier flush never delivers
	// more frames to a port than its RX ring plus the device backlog hold.
	fleetQuantum = 200_000
	netBatch     = 16
	netRAM       = 4 << 20
	fleetRAM     = 8 << 20

	// Host-replenished RX ring: high in eagerly populated RAM, clear of the
	// guest TX program's own rings and buffers below 1 MiB.
	rxRingBase = 0x200000
	rxRingSize = virtio.MaxQueueSize
	rxBufLen   = 512
)

// pairFrameLens are dealt to the unicast pairs by the seed. Lengths i and 3-i
// sum to 512, and dealPairLens always deals both, so the mean (256) is the
// same at every seed and bytes per frame move neither frames_per_s nor
// alloc_mib.
var pairFrameLens = []uint64{192, 224, 288, 320}

// dealPairLens deals frame lengths to pairs (2 or 4) unicast pairs.
func dealPairLens(p params, pairs int) []uint64 {
	r := p.stream(2)
	lens := make([]uint64, 0, len(pairFrameLens))
	for _, i := range r.perm(len(pairFrameLens) / 2)[:pairs/2] {
		a, b := pairFrameLens[i], pairFrameLens[len(pairFrameLens)-1-i]
		if r.intn(2) == 1 {
			a, b = b, a
		}
		lens = append(lens, a, b)
	}
	return lens
}

// netVM is one virtio-net guest transmitting at its peer while the host
// keeps its RX ring stocked.
type netVM struct {
	vm     *core.VM
	net    *virtio.Net
	dev    *virtio.MMIODev
	rx     *virtio.Driver
	rxBufs uint64 // gpa of buffer 0; buffer i belongs to descriptor i
	frames uint64 // frames this VM transmits
}

// fleet is one built RunParallel workload, ready to run once.
type fleet struct {
	host     *core.Host
	sw       *vnet.Switch
	nets     []*netVM
	blkDev   *virtio.MMIODev
	img      *wrapImage
	ksm      *ksmTotals // nil without KSM
	mig      *migration
	services []epochService
	tracer   *epochTracer // nil when untraced
}

// ksmTotals sums ksm.Stats over the fleet's scan passes.
type ksmTotals struct{ scanned, merged uint64 }

// migration is the off-host VM pair streamed once from the fleet's barrier.
type migration struct {
	src, dst  *core.VM
	epoch     int
	rep       migrate.StreamReport
	err       error
	done      bool
	wireBytes uint64
}

// countingConn counts the bytes the migration source writes to the wire.
type countingConn struct {
	io.ReadWriteCloser
	n *uint64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	*c.n += uint64(n)
	return n, err
}

// addNetVM creates a VM with a virtio-net device on sw, boots the unicast
// TX program at dst, and arms a full host-side RX ring.
func (f *fleet) addNetVM(name string, ram uint64, frames, frameLen uint64, src, dst vnet.MAC) error {
	vm, err := f.host.CreateVM(core.Config{Name: name, Mode: core.ModeHW, MemBytes: ram, EagerMem: true})
	if err != nil {
		return err
	}
	port := f.sw.NewPort()
	// Static FDB entries: no frame floods while the switch is still learning.
	f.sw.Learn(src, port)
	net, dev, err := vm.AttachVirtioNet(port)
	if err != nil {
		return err
	}
	prog, err := guest.BuildVirtioNetUnicastProgram(frames, netBatch, frameLen, 0, src, dst)
	if err != nil {
		return err
	}
	if err := vm.Boot(prog); err != nil {
		return err
	}
	rx, bufs, err := virtio.NewDriver(vm.Mem, dev, virtio.NetRXQueue, rxRingBase, rxRingSize)
	if err != nil {
		return err
	}
	n := &netVM{vm: vm, net: net, dev: dev, rx: rx, rxBufs: bufs, frames: frames}
	for i := 0; i < rxRingSize; i++ {
		if err := n.post(uint16(i)); err != nil {
			return err
		}
	}
	rx.Kick()
	f.nets = append(f.nets, n)
	f.host.AddToScheduler(len(f.host.VMs)-1, 256, 0)
	return nil
}

// post hands descriptor slot i's buffer back to the device.
func (n *netVM) post(i uint16) error {
	buf := [1]virtio.DescBuf{{Addr: n.rxBufs + uint64(i)*rxBufLen, Len: rxBufLen, Device: true}}
	_, err := n.rx.Submit(buf[:])
	return err
}

// replenish is the barrier-time RX service: every used buffer goes straight
// back on the available ring. Completions arrive in ring order, so slot i's
// buffer is re-posted into slot i.
func (f *fleet) replenish(int) bool {
	worked := false
	for _, n := range f.nets {
		posted := false
		for {
			head, _, ok := n.rx.PollUsed()
			if !ok {
				break
			}
			if err := n.post(head); err != nil {
				n.vm.FailRemote(fmt.Errorf("benchmark: rx replenish: %w", err))
				break
			}
			posted = true
		}
		if posted {
			n.rx.Kick()
			n.rx.AckInterrupt()
			worked = true
		}
	}
	return worked
}

// addBlkWriter boots the virtio-blk sector writer over the wrapping image.
func (f *fleet) addBlkWriter(ram, sectors uint64, img storage.Image) error {
	vm, err := f.host.CreateVM(core.Config{Name: "blk", Mode: core.ModeHW, MemBytes: ram, EagerMem: true})
	if err != nil {
		return err
	}
	if _, f.blkDev, err = vm.AttachVirtioBlk(img); err != nil {
		return err
	}
	prog, err := guest.BuildVirtioBlkProgram(sectors, netBatch, 0)
	if err != nil {
		return err
	}
	if err := vm.Boot(prog); err != nil {
		return err
	}
	f.host.AddToScheduler(len(f.host.VMs)-1, 256, 0)
	return nil
}

// newFleet builds the host, switch and disk shared by both RunParallel
// workloads. With a recorder, the scheduler and the disk are decorated.
func newFleet(frames uint64, pcpus int, policy core.LeaseScheduler, rec *recorder) (*fleet, storage.Image) {
	f := &fleet{sw: vnet.NewSwitch()}
	var img storage.Image
	if rec != nil {
		f.tracer = newEpochTracer(policy, rec)
		f.tracer.img = newTracedImage(rec)
		f.img, img, policy = f.tracer.img.wrapImage, f.tracer.img, f.tracer
	} else {
		f.img = newWrapImage()
		img = f.img
	}
	f.host = core.NewHost(frames, pcpus, policy)
	return f, img
}

// finish installs the barrier services as the host's EpochFunc.
func (f *fleet) finish() {
	if f.tracer != nil {
		f.host.EpochFunc = f.tracer.wrapEpochFunc(f.services)
	} else {
		f.host.EpochFunc = plainEpochFunc(f.services)
	}
}

// buildDataplane: 8 VMs in 4 bidirectional pairs, each transmitting at its
// peer, plus one virtio-blk writer. PCPUs equals the VM count, so every VM
// holds a lease every epoch and the serial barrier is all that is shared.
func buildDataplane(p params, rec *recorder) (*fleet, error) {
	sz := fleetSizes["dataplane"]
	vms := int(sz["net_vms"])
	f, img := newFleet(uint64(vms+2)*(netRAM>>isa.PageShift), vms+1, sched.NewRoundRobin(fleetQuantum), rec)
	frames := p.n(sz["frames_per_vm"], netBatch)
	lens := dealPairLens(p, vms/2)
	for i := 0; i < vms; i++ {
		err := f.addNetVM(fmt.Sprintf("net%d", i), netRAM, frames, lens[i/2],
			vnet.MACForVM(uint32(i)), vnet.MACForVM(uint32(i^1)))
		if err != nil {
			return nil, err
		}
	}
	if err := f.addBlkWriter(netRAM, p.n(sz["blk_sectors"], netBatch), img); err != nil {
		return nil, err
	}
	f.services = []epochService{{"virtio.rx_replenish", f.replenish}}
	f.finish()
	return f, nil
}

// buildFleet is the headline mix (ROADMAP's E1): 12 VMs on 4 PCPUs under
// the credit scheduler — 3:1 overcommit, so scheduling decisions matter —
// with KSM scans and one streamed migration at the barrier.
func buildFleet(p params, rec *recorder) (*fleet, error) {
	sz := fleetSizes["fleet"]
	credit := sched.NewCredit()
	credit.Quantum = fleetQuantum
	f, img := newFleet((sz["vms"]+2)*(fleetRAM>>isa.PageShift), int(sz["pcpus"]), credit, rec)
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	frames := p.n(sz["frames_per_vm"], netBatch)
	lens := dealPairLens(p, 2)

	kernelVM := func(name string, mode core.Mode, w guest.Workload) func() error {
		return func() error { return f.addGuest(name, mode, kernel, &w) }
	}
	streamVM := func(name string, mode core.Mode, kind guest.StreamKind, iters uint64) func() error {
		return func() error {
			prog, err := guest.BuildStreamProgram(kind, iters, 512)
			if err != nil {
				return err
			}
			return f.addGuest(name, mode, prog, nil)
		}
	}
	netGuest := func(i int) func() error {
		return func() error {
			// MAC ids are fixed per VM, whatever slot the seed deals it.
			return f.addNetVM(fmt.Sprintf("net%d", i), netRAM, frames, lens[i/2],
				vnet.MACForVM(uint32(i)), vnet.MACForVM(uint32(i^1)))
		}
	}
	compute := guest.Compute(p.n(sz["compute_iters"], 1), 200)
	add := []func() error{
		kernelVM("compute0", core.ModeHW, compute),
		kernelVM("compute1", core.ModeHW, compute),
		kernelVM("compute2", core.ModeHW, compute),
		streamVM("store0", core.ModeHW, guest.StreamStore, p.n(sz["store_iters"], 1)),
		streamVM("store1", core.ModeHW, guest.StreamStore, p.n(sz["store_iters"], 1)),
		streamVM("mixed", core.ModeTrap, guest.StreamMixed, p.n(sz["mixed_iters"], 1)),
		kernelVM("touch", core.ModePara, guest.MemTouch(p.n(sz["touch_iters"], 1), touchPages, 30)),
		netGuest(0), netGuest(1), netGuest(2), netGuest(3),
		func() error { return f.addBlkWriter(netRAM, p.n(sz["blk_sectors"], netBatch), img) },
	}
	// The seed deals the VMs their host slots: scheduler registration order
	// and switch port ids follow it.
	for _, i := range p.stream(3).perm(len(add)) {
		if err := add[i](); err != nil {
			return nil, err
		}
	}

	f.ksm = &ksmTotals{}
	spaces := make([]*mem.GuestPhys, len(f.host.VMs))
	for i, vm := range f.host.VMs {
		spaces[i] = vm.Mem
	}
	if f.mig, err = newMigration(p, kernel, sz["migrate_mib"]<<20); err != nil {
		return nil, err
	}
	ksmEvery := 16
	if p.quick {
		ksmEvery = 4
	}
	f.services = []epochService{
		{"virtio.rx_replenish", f.replenish},
		{"ksm.scan", func(epoch int) bool {
			if epoch%ksmEvery != ksmEvery-1 {
				return false
			}
			// A scanner per pass, not the long-lived one the issue names.
			// ksm.Scanner remembers canonical frames across passes by frame
			// number and owner; a frame freed and reused in between is then
			// shared without its new owner being marked copy-on-write, and
			// that owner's memoized stores race the sharer's COW copy (go
			// test -race shows it). That is a program bug for a bugfix issue
			// of its own (CHANGES.md PR 11 finding 1, README "Known
			// hazards"); until it is fixed a long-lived scanner would let
			// the digest depend on worker interleaving, and ksm.scan_s and
			// ksm.pages_merged do not cover the cross-pass path.
			s := ksm.NewScanner(f.host.Pool)
			s.ScanAll(spaces)
			f.ksm.scanned += s.Stats.PagesScanned
			f.ksm.merged += s.Stats.PagesMerged
			return true
		}},
		{"migrate.stream", f.mig.run},
	}
	f.finish()
	return f, nil
}

// addGuest creates a demand-paged VM running img (with workload w applied
// when img is the universal kernel).
func (f *fleet) addGuest(name string, mode core.Mode, img []byte, w *guest.Workload) error {
	vm, err := f.host.CreateVM(core.Config{Name: name, Mode: mode, MemBytes: fleetRAM})
	if err != nil {
		return err
	}
	if w != nil {
		w.Apply(vm)
	}
	if err := vm.Boot(img); err != nil {
		return err
	}
	f.host.AddToScheduler(len(f.host.VMs)-1, 256, 0)
	return nil
}

// newMigration boots the off-host source — a page dirtier that never stops,
// so pre-copy runs all its rounds — and creates its blank destination.
func newMigration(p params, kernel []byte, ram uint64) (*migration, error) {
	m := &migration{epoch: 64}
	if p.quick {
		m.epoch = 4
		ram /= 2
	}
	pool := mem.NewPool(3 * ram >> isa.PageShift)
	cfg := core.Config{Name: "mig-src", Mode: core.ModeHW, MemBytes: ram, EagerMem: true}
	var err error
	if m.src, err = core.NewVM(pool, cfg); err != nil {
		return nil, err
	}
	guest.Dirty(0, p.n(512, 1), 200).Apply(m.src)
	if err := m.src.Boot(kernel); err != nil {
		return nil, err
	}
	// Into the dirtying loop before the clock starts.
	m.src.Step(2_000_000)
	cfg.Name = "mig-dst"
	if m.dst, err = core.NewVM(pool, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// run streams the migration at its epoch.
func (m *migration) run(epoch int) bool {
	if epoch != m.epoch {
		return false
	}
	opt := migrate.DefaultStreamOptions()
	opt.MaxRounds = 6
	opt.Wire = migrate.PipeWire(func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return countingConn{c, &m.wireBytes}
	})
	m.rep, m.err = migrate.StreamMigrate(m.src, m.dst, opt)
	m.done = true
	return true
}
