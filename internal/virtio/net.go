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

	// rxBacklog is a ring of rxLen frames starting at rxHead, oldest first.
	// A slot keeps its buffer when its frame leaves, so a backlog that has
	// seen its largest frames stops allocating.
	rxBacklog     [netBacklogDepth][]byte
	rxHead, rxLen int

	// Stats.
	TxFrames, RxFrames, RxDropped, TxDropped uint64
}

const netBacklogDepth = 256

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
		q.serve(func(ch Chain) uint32 { return n.transmit(q, ch) })
	case NetRXQueue:
		// Fresh RX buffers posted: drain any backlog into them.
		n.flushBacklog(q)
	}
}

// transmit gathers one TX chain (header + frame) and sends the frame. A
// chain past maxStage, or one with a descriptor aimed at faulting memory, is
// dropped: it must neither size a host allocation nor put bytes the guest
// never wrote on the wire. The chain completes either way.
func (n *Net) transmit(q *Queue, ch Chain) uint32 {
	buf, ok := q.gather(ch.Buf)
	switch {
	case !ok:
		n.TxDropped++
	case len(buf) > NetHeaderSize:
		if n.link != nil {
			n.link.Send(buf[NetHeaderSize:])
		}
		n.TxFrames++
	}
	return 0
}

// rxQueue returns the RX queue once the guest has configured it.
func (n *Net) rxQueue() *Queue {
	if n.dev == nil {
		return nil
	}
	if q := n.dev.Queue(NetRXQueue); q.Ready() {
		return q
	}
	return nil
}

// receive handles a frame from the link, which owns the bytes again once
// receive returns. Behind a backlog the frame queues, to keep arrival order;
// otherwise it goes straight into a posted RX buffer when there is one.
func (n *Net) receive(frame []byte) {
	q := n.rxQueue()
	if q == nil {
		n.enqueue(frame)
		return
	}
	if n.rxLen > 0 {
		n.enqueue(frame)
		n.flushBacklog(q)
	} else if ch, ok := q.Pop(); ok {
		n.fillRX(q, ch, frame)
	} else {
		n.enqueue(frame)
	}
	n.dev.notify(q)
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

func (n *Net) flushBacklog(q *Queue) {
	for n.rxLen > 0 {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		n.fillRX(q, ch, n.rxBacklog[n.rxHead])
		n.rxHead = (n.rxHead + 1) % netBacklogDepth
		n.rxLen--
	}
	if n.rxLen == 0 {
		n.rxHead = 0 // refill the slots that already own buffers
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
