package virtio

import (
	"govisor/internal/mem"
)

// Device IDs, matching the virtio specification.
const (
	IDNet     = 1
	IDBlock   = 2
	IDConsole = 3
	IDBalloon = 5
)

// MMIO register offsets (virtio-mmio flavoured; 64-bit ring addresses are
// written as single doublewords rather than lo/hi pairs).
const (
	RegMagic      = 0x00 // RO: 0x74726976 "virt"
	RegDeviceID   = 0x08 // RO
	RegQueueSel   = 0x30 // WO: selects the queue the Queue* regs address
	RegQueueMax   = 0x34 // RO: max ring size
	RegQueueNum   = 0x38 // WO: ring size
	RegQueueDesc  = 0x40 // WO: descriptor table gpa
	RegQueueAvail = 0x48 // WO: available ring gpa
	RegQueueUsed  = 0x50 // WO: used ring gpa
	RegQueueReady = 0x58 // WO: 1 arms the selected queue
	RegNotify     = 0x60 // WO: doorbell; value = queue index
	RegIntStatus  = 0x68 // RO: bit0 = used-ring update
	RegIntAck     = 0x70 // WO: acknowledge interrupt bits
	RegStatus     = 0x78 // RW: driver status
	RegConfig     = 0x80 // device-specific config space
)

// Magic is the value of RegMagic.
const Magic = 0x74726976

// MaxQueueSize bounds ring sizes.
const MaxQueueSize = 1024

// Backend is the device-specific behaviour behind the common MMIO plumbing.
type Backend interface {
	// DeviceID returns the virtio device type.
	DeviceID() uint32
	// NumQueues returns how many virtqueues the device exposes.
	NumQueues() int
	// Process drains one queue after a guest kick. It pushes completions
	// and leaves the interrupt to the transport, which raises it once if
	// the kicked queue's used ring moved (see MMIODev.notify).
	Process(q *Queue, qi int)
	// ReadConfig reads device-specific configuration space.
	ReadConfig(off uint64, size int) uint64
}

// IRQRaiser abstracts the interrupt controller line of a device.
type IRQRaiser func()

// MMIODev is the common virtio-mmio transport wrapping a Backend. It
// implements dev.Device structurally (Name/MMIORead/MMIOWrite) without
// importing the dev package.
type MMIODev struct {
	name    string
	backend Backend
	g       *mem.GuestPhys
	raise   IRQRaiser

	queues    []Queue
	sel       uint32
	num       uint16
	desc      uint64
	avail     uint64
	used      uint64
	intStatus uint64
	status    uint64

	// Stats.
	Notifies uint64
	IRQs     uint64
}

// NewMMIODev wires a backend to guest memory and an IRQ line.
func NewMMIODev(name string, backend Backend, g *mem.GuestPhys, raise IRQRaiser) *MMIODev {
	return &MMIODev{
		name:    name,
		backend: backend,
		g:       g,
		raise:   raise,
		queues:  make([]Queue, backend.NumQueues()),
	}
}

// Name implements the device interface.
func (d *MMIODev) Name() string { return d.name }

// Queue exposes queue qi (device models and tests).
func (d *MMIODev) Queue(qi int) *Queue {
	if qi < 0 || qi >= len(d.queues) {
		return nil
	}
	return &d.queues[qi]
}

// InterruptPending reports unacknowledged interrupt bits.
func (d *MMIODev) InterruptPending() bool { return d.intStatus != 0 }

// SignalUsed sets the used-buffer interrupt bit and raises the device IRQ.
// Completions reach it through notify; a backend calls it directly only for
// an event no used ring records (the balloon's config-change notice).
func (d *MMIODev) SignalUsed() {
	d.intStatus |= 1
	d.IRQs++
	if d.raise != nil {
		d.raise()
	}
}

// notify is the one completion rule: it raises the used-buffer interrupt
// once if q's used ring moved since the last notify, whichever chains moved
// it — served, or malformed and completed inside Pop. It runs after every
// kick and at the end of every host-side delivery, so a driver sleeping on
// the used ring never misses a completion.
func (d *MMIODev) notify(q *Queue) {
	if q.usedIdx != q.notified {
		q.notified = q.usedIdx
		d.SignalUsed()
	}
}

// MMIORead implements the device interface.
func (d *MMIODev) MMIORead(off uint64, size int) uint64 {
	switch off {
	case RegMagic:
		return Magic
	case RegDeviceID:
		return uint64(d.backend.DeviceID())
	case RegQueueMax:
		return MaxQueueSize
	case RegIntStatus:
		return d.intStatus
	case RegStatus:
		return d.status
	}
	if off >= RegConfig {
		return d.backend.ReadConfig(off-RegConfig, size)
	}
	return 0
}

// MMIOWrite implements the device interface.
func (d *MMIODev) MMIOWrite(off uint64, size int, v uint64) {
	switch off {
	case RegQueueSel:
		d.sel = uint32(v)
	case RegQueueNum:
		if v > MaxQueueSize {
			v = MaxQueueSize
		}
		d.num = uint16(v)
	case RegQueueDesc:
		d.desc = v
	case RegQueueAvail:
		d.avail = v
	case RegQueueUsed:
		d.used = v
	case RegQueueReady:
		if v == 1 && int(d.sel) < len(d.queues) {
			// Configuration errors leave the queue unarmed; the guest
			// observes a dead device rather than a crashed VMM.
			_ = d.queues[d.sel].Configure(d.g, d.num, d.desc, d.avail, d.used)
		}
	case RegNotify:
		qi := int(v)
		if qi < len(d.queues) && d.queues[qi].Ready() {
			d.Notifies++
			q := &d.queues[qi]
			q.Kicks++
			d.backend.Process(q, qi)
			d.notify(q)
		}
	case RegIntAck:
		d.intStatus &^= v
	case RegStatus:
		d.status = v
	}
}

// SetupQueue is a host-side convenience used by tests and the Go driver: it
// lays the rings out at base and arms queue qi, returning the first free
// address past the rings.
func (d *MMIODev) SetupQueue(qi int, base uint64, num uint16) (uint64, error) {
	desc, avail, used, end := Layout(base, num)
	d.MMIOWrite(RegQueueSel, 4, uint64(qi))
	d.MMIOWrite(RegQueueNum, 4, uint64(num))
	d.MMIOWrite(RegQueueDesc, 8, desc)
	d.MMIOWrite(RegQueueAvail, 8, avail)
	d.MMIOWrite(RegQueueUsed, 8, used)
	d.MMIOWrite(RegQueueReady, 4, 1)
	if !d.queues[qi].Ready() {
		return 0, errQueueConfig
	}
	return end, nil
}

var errQueueConfig = errConfigType{}

type errConfigType struct{}

func (errConfigType) Error() string { return "virtio: queue configuration rejected" }
