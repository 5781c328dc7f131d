package virtio

// NetHeaderSize is the virtio-net per-frame header the device skips over
// (no offloads are modelled, so its contents are zero).
const NetHeaderSize = 12

// Virtio-net queue indices.
const (
	NetRXQueue = 0
	NetTXQueue = 1
)

// NetBackend matches dev.NetBackend structurally. Send copies or consumes the
// frame before it returns, and the frame handed to a receiver is valid only
// for the duration of the call: both sides reuse their buffers.
type NetBackend interface {
	Send(frame []byte)
	SetReceiver(fn func(frame []byte))
}

// Net is the virtio-net device model: an RX queue the guest posts empty
// buffers into and a TX queue it posts frames on. A frame arriving while RX
// buffers are posted is written straight into them; frames arriving while
// none are posted are queued up to a bounded depth, then dropped oldest
// first — matching real NIC semantics.
type Net struct {
	link NetBackend
	dev  *MMIODev

	// txBuf gathers one TX chain (header + frame) at a time. It grows to
	// the largest chain seen, which maxTxFrame bounds.
	txBuf []byte

	// rxBacklog is a ring of rxLen frames starting at rxHead, oldest first.
	// A slot keeps its buffer when its frame leaves, so a backlog that has
	// seen its largest frames stops allocating.
	rxBacklog     [netBacklogDepth][]byte
	rxHead, rxLen int

	// Stats.
	TxFrames, RxFrames, RxDropped, TxDropped uint64
}

const netBacklogDepth = 256

// maxTxFrame bounds one TX chain's readable bytes (64 KiB covers the largest
// TSO-style frame). A malformed descriptor advertising a multi-gigabyte
// length must not size a host allocation.
const maxTxFrame = 64 << 10

// zeroNetHeader is the header the device writes ahead of every RX frame.
var zeroNetHeader [NetHeaderSize]byte

// NewNet creates the model over a link (a vnet switch port).
func NewNet(link NetBackend) *Net {
	n := &Net{link: link}
	if link != nil {
		link.SetReceiver(n.receive)
	}
	return n
}

// Bind attaches the transport.
func (n *Net) Bind(dev *MMIODev) { n.dev = dev }

// DeviceID implements Backend.
func (n *Net) DeviceID() uint32 { return IDNet }

// NumQueues implements Backend.
func (n *Net) NumQueues() int { return 2 }

// ReadConfig implements Backend.
func (n *Net) ReadConfig(off uint64, size int) uint64 { return 0 }

// Process implements Backend.
func (n *Net) Process(q *Queue, qi int) {
	switch qi {
	case NetTXQueue:
		n.processTX(q)
	case NetRXQueue:
		// Fresh RX buffers posted: drain any backlog into them.
		n.flushBacklog()
	}
}

func (n *Net) processTX(q *Queue) {
	completed := false
	for {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		total := ch.ReadLen()
		switch {
		case total > maxTxFrame:
			// Malformed length: a guest-advertised multi-gigabyte chain must
			// neither size a host allocation nor reach the wire.
			n.TxDropped++
		case total > NetHeaderSize:
			if int(total) > len(n.txBuf) {
				n.txBuf = make([]byte, total)
			}
			buf := n.txBuf[:total]
			off := 0
			faulted := false
			for _, d := range ch.Buf {
				if d.Device {
					continue
				}
				nb := int(d.Len)
				if nb > len(buf)-off {
					// The uint32 length sum wrapped: individual descriptors
					// carry more bytes than the chain's total claims.
					faulted = true
					break
				}
				if err := q.ReadFrom(d, buf[off:off+nb]); err != nil {
					faulted = true
					break
				}
				off += nb
			}
			if faulted {
				// A descriptor aimed at faulting memory: transmitting the
				// unread remainder would put a frame the guest never wrote
				// on the wire. Drop it; the chain still completes.
				n.TxDropped++
			} else {
				if n.link != nil {
					n.link.Send(buf[NetHeaderSize:])
				}
				n.TxFrames++
			}
		}
		q.Push(ch.Head, 0)
		completed = true
	}
	if completed && n.dev != nil {
		n.dev.SignalUsed()
	}
}

// rxQueue returns the RX queue once the guest has configured it.
func (n *Net) rxQueue() *Queue {
	if n.dev == nil {
		return nil
	}
	if q := n.dev.Queue(NetRXQueue); q != nil && q.Ready() {
		return q
	}
	return nil
}

// receive handles a frame from the link, which owns the bytes again once
// receive returns. Behind a backlog the frame queues, to keep arrival order;
// otherwise it goes straight into a posted RX buffer when there is one.
func (n *Net) receive(frame []byte) {
	if n.rxLen > 0 {
		n.enqueue(frame)
		n.flushBacklog()
		return
	}
	if q := n.rxQueue(); q != nil {
		if ch, ok := q.Pop(); ok {
			n.fillRX(q, ch, frame)
			n.dev.SignalUsed()
			return
		}
	}
	n.enqueue(frame)
}

// enqueue copies frame onto the tail of the backlog. A full backlog drops
// its oldest frame to make room.
func (n *Net) enqueue(frame []byte) {
	if n.rxLen == netBacklogDepth {
		n.rxHead = (n.rxHead + 1) % netBacklogDepth
		n.rxLen--
		n.RxDropped++
	}
	slot := &n.rxBacklog[(n.rxHead+n.rxLen)%netBacklogDepth]
	*slot = append((*slot)[:0], frame...)
	n.rxLen++
}

func (n *Net) flushBacklog() {
	q := n.rxQueue()
	if q == nil {
		return
	}
	delivered := false
	for n.rxLen > 0 {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		n.fillRX(q, ch, n.rxBacklog[n.rxHead])
		n.rxHead = (n.rxHead + 1) % netBacklogDepth
		n.rxLen--
		delivered = true
	}
	if n.rxLen == 0 {
		n.rxHead = 0 // refill the slots that already own buffers
	}
	if delivered {
		n.dev.SignalUsed()
	}
}

// fillRX completes one RX chain: the device writes header (zeros) + frame
// into the chain's buffers, as much as they hold.
func (n *Net) fillRX(q *Queue, ch Chain, frame []byte) {
	written := q.scatter(ch, 0, zeroNetHeader[:])
	written += q.scatter(ch, NetHeaderSize, frame)
	q.Push(ch.Head, written)
	n.RxFrames++
}
