package dev

import "bytes"

// UART is the console device: a transmit register the guest writes bytes to
// and a receive register fed by the host. Every byte is one MMIO exit —
// consoles are allowed to be slow.
type UART struct {
	out bytes.Buffer
	in  []byte
	ic  *IntController

	TxBytes, RxBytes uint64
}

// UART register offsets.
const (
	UARTTx     = 0x0  // write: transmit one byte
	UARTRx     = 0x8  // read: next input byte (0 if empty)
	UARTStatus = 0x10 // read: bit0 = rx data available
)

// NewUART creates a console; ic may be nil for polled operation.
func NewUART(ic *IntController) *UART { return &UART{ic: ic} }

// Name implements Device.
func (u *UART) Name() string { return "uart" }

// MMIOWrite implements Device.
func (u *UART) MMIOWrite(off uint64, size int, v uint64) {
	if off == UARTTx {
		u.out.WriteByte(byte(v))
		u.TxBytes++
	}
}

// MMIORead implements Device.
func (u *UART) MMIORead(off uint64, size int) uint64 {
	switch off {
	case UARTRx:
		if len(u.in) == 0 {
			return 0
		}
		b := u.in[0]
		u.in = u.in[1:]
		u.RxBytes++
		return uint64(b)
	case UARTStatus:
		if len(u.in) > 0 {
			return 1
		}
	}
	return 0
}

// Feed queues host→guest input and raises the UART interrupt.
func (u *UART) Feed(data []byte) {
	u.in = append(u.in, data...)
	if u.ic != nil {
		u.ic.Raise(IRQUart)
	}
}

// Output returns everything the guest has printed.
func (u *UART) Output() string { return u.out.String() }
