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

// Process implements Backend. TX descriptors are gathered one at a time, so
// a refused or faulting descriptor drops only its own bytes.
func (c *Console) Process(q *Queue, qi int) {
	switch qi {
	case ConsoleTXQueue:
		q.serve(func(ch Chain) uint32 {
			for i := range ch.Buf {
				buf, ok := q.gather(ch.Buf[i : i+1])
				if !ok {
					c.TxDropped++
					continue
				}
				c.out.Write(buf)
				c.TxBytes += uint64(len(buf))
			}
			return 0
		})
	case ConsoleRXQueue:
		c.flushInput(q)
	}
}

// Feed queues host→guest input bytes and delivers into posted RX buffers.
func (c *Console) Feed(data []byte) {
	c.in = append(c.in, data...)
	if c.dev == nil {
		return
	}
	if q := c.dev.Queue(ConsoleRXQueue); q.Ready() {
		c.flushInput(q)
		c.dev.notify(q)
	}
}

func (c *Console) flushInput(q *Queue) {
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
	}
}

// Output returns everything the guest has written.
func (c *Console) Output() string { return c.out.String() }
