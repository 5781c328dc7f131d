package dev

import "encoding/binary"

// MaxFrameSize bounds Ethernet-style frames in the simulated network.
const MaxFrameSize = 1536

// NetBackend is the link a NIC attaches to; implemented by internal/vnet
// switch ports.
type NetBackend interface {
	// Send transmits a frame into the network. The backend copies or
	// consumes it before returning; the caller reuses the buffer.
	Send(frame []byte)
	// SetReceiver registers the function invoked for frames addressed to
	// this port. The frame is valid only for the duration of the call.
	SetReceiver(fn func(frame []byte))
}

// RegNIC is the fully-emulated baseline network device: the guest moves
// every frame through an 8-byte data port, one MMIO exit per doubleword,
// mirroring pre-virtio emulated NICs. Compared against virtio-net in T6.
type RegNIC struct {
	backend NetBackend
	ic      *IntController

	txBuf [MaxFrameSize]byte
	txLen uint64
	txPos uint64

	rxQueue [][]byte
	rxBuf   []byte
	rxPos   uint64

	// Stats.
	TxFrames, RxFrames, RxDropped uint64
}

// RegNIC register offsets.
const (
	RegNICTxLen  = 0x00 // write: frame length, resets the tx pointer
	RegNICTxData = 0x08 // write: next 8 frame bytes
	RegNICTxSend = 0x10 // write: transmit the buffered frame
	RegNICStatus = 0x18 // read: bit0 = rx frame available
	RegNICRxLen  = 0x20 // read: length of head rx frame, loads it for reading
	RegNICRxData = 0x28 // read: next 8 bytes of the loaded frame
	RegNICRxDone = 0x30 // write: pop the consumed frame
)

const rxQueueDepth = 64

// NewRegNIC creates the device; ic may be nil for polled receive.
func NewRegNIC(backend NetBackend, ic *IntController) *RegNIC {
	n := &RegNIC{backend: backend, ic: ic}
	if backend != nil {
		backend.SetReceiver(n.receive)
	}
	return n
}

// Name implements Device.
func (n *RegNIC) Name() string { return "reg-nic" }

func (n *RegNIC) receive(frame []byte) {
	if len(n.rxQueue) >= rxQueueDepth {
		n.RxDropped++
		return
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	n.rxQueue = append(n.rxQueue, cp)
	if n.ic != nil {
		n.ic.Raise(IRQRegNIC)
	}
}

// MMIOWrite implements Device.
func (n *RegNIC) MMIOWrite(off uint64, size int, v uint64) {
	switch off {
	case RegNICTxLen:
		if v > MaxFrameSize {
			v = MaxFrameSize
		}
		n.txLen = v
		n.txPos = 0
	case RegNICTxData:
		if n.txPos+8 <= MaxFrameSize {
			binary.LittleEndian.PutUint64(n.txBuf[n.txPos:], v)
			n.txPos += 8
		}
	case RegNICTxSend:
		if n.backend != nil && n.txLen > 0 {
			n.backend.Send(n.txBuf[:n.txLen])
			n.TxFrames++
		}
	case RegNICRxDone:
		n.rxBuf = nil
		n.rxPos = 0
	}
}

// MMIORead implements Device.
func (n *RegNIC) MMIORead(off uint64, size int) uint64 {
	switch off {
	case RegNICStatus:
		if len(n.rxQueue) > 0 || n.rxBuf != nil {
			return 1
		}
	case RegNICRxLen:
		if n.rxBuf == nil && len(n.rxQueue) > 0 {
			n.rxBuf = n.rxQueue[0]
			n.rxQueue = n.rxQueue[1:]
			n.rxPos = 0
			n.RxFrames++
		}
		if n.rxBuf != nil {
			return uint64(len(n.rxBuf))
		}
	case RegNICRxData:
		if n.rxBuf != nil && n.rxPos < uint64(len(n.rxBuf)) {
			var chunk [8]byte
			copy(chunk[:], n.rxBuf[n.rxPos:])
			n.rxPos += 8
			return binary.LittleEndian.Uint64(chunk[:])
		}
	}
	return 0
}
