package virtio

import "bytes"

// Virtio-console queue indices.
const (
	ConsoleRXQueue = 0
	ConsoleTXQueue = 1
)

// Console is the paravirtual console: byte streams over two queues. The
// host side accumulates guest output and feeds input.
type Console struct {
	dev *MMIODev
	out bytes.Buffer
	in  []byte

	// txBuf stages one TX descriptor between guest memory and out. It grows
	// to the longest descriptor served, at most maxDescRead.
	txBuf []byte

	// TxDropped counts TX descriptors refused for their length or lost to a
	// DMA fault.
	TxBytes, RxBytes, TxDropped uint64
}

// NewConsole creates the model.
func NewConsole() *Console { return &Console{} }

// Bind attaches the transport.
func (c *Console) Bind(dev *MMIODev) { c.dev = dev }

// DeviceID implements Backend.
func (c *Console) DeviceID() uint32 { return IDConsole }

// NumQueues implements Backend.
func (c *Console) NumQueues() int { return 2 }

// ReadConfig implements Backend.
func (c *Console) ReadConfig(off uint64, size int) uint64 { return 0 }

// Process implements Backend.
func (c *Console) Process(q *Queue, qi int) {
	switch qi {
	case ConsoleTXQueue:
		completed := false
		for {
			ch, ok := q.Pop()
			if !ok {
				break
			}
			for _, d := range ch.Buf {
				if d.Device {
					continue
				}
				if d.Len > maxDescRead {
					c.TxDropped++
					continue
				}
				if int(d.Len) > len(c.txBuf) {
					c.txBuf = make([]byte, d.Len)
				}
				buf := c.txBuf[:d.Len]
				if q.ReadFrom(d, buf) != nil {
					c.TxDropped++
					continue
				}
				c.out.Write(buf)
				c.TxBytes += uint64(d.Len)
			}
			q.Push(ch.Head, 0)
			completed = true
		}
		if completed && c.dev != nil {
			c.dev.SignalUsed()
		}
	case ConsoleRXQueue:
		c.flushInput()
	}
}

// Feed queues host→guest input bytes and delivers into posted RX buffers.
func (c *Console) Feed(data []byte) {
	c.in = append(c.in, data...)
	c.flushInput()
}

func (c *Console) flushInput() {
	if c.dev == nil || len(c.in) == 0 {
		return
	}
	q := c.dev.Queue(ConsoleRXQueue)
	if q == nil || !q.Ready() {
		return
	}
	delivered := false
	for len(c.in) > 0 {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		written := uint32(0)
		for _, d := range ch.Buf {
			if !d.Device || len(c.in) == 0 {
				continue
			}
			n := min(int(d.Len), len(c.in))
			if q.WriteTo(d, c.in[:n]) != nil {
				// The bytes did not land: they stay queued for the next
				// buffer, and this chain completes with what did.
				break
			}
			c.in = c.in[n:]
			written += uint32(n)
			c.RxBytes += uint64(n)
		}
		q.Push(ch.Head, written)
		delivered = true
	}
	if delivered {
		c.dev.SignalUsed()
	}
}

// Output returns everything the guest has written.
func (c *Console) Output() string { return c.out.String() }
