package mem

import "govisor/internal/isa"

// SetReferenceDMA pins this space's DMA to the reference arm: ReadSpan and
// WriteSpan resolve every page through the plain Read/Write paths and leave
// the memos alone. Call it on a fresh space, before the first access;
// core.Config.Reference is the one caller outside the tests.
func (g *GuestPhys) SetReferenceDMA() { g.refDMA = true }

// ReadSpan copies len(buf) bytes from gpa, resolving each page through the
// read memo (readHit/readFill) — the CPU's loads and device DMA share it.
// Reads have no guest-visible side effects, so the memo is guest-invisible
// by construction and the differential suites prove it.
//
//govisor:pair Read
func (g *GuestPhys) ReadSpan(gpa uint64, buf []byte) *Fault {
	if g.refDMA {
		return g.Read(gpa, buf)
	}
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := min(isa.PageSize-off, len(buf))
		m, ok := g.readHit(gpa >> isa.PageShift)
		data := m.data
		if !ok {
			hfn, k := g.resolveRead(gpa)
			if k != FaultNone {
				return faultOf(k, gpa, isa.AccRead)
			}
			data = g.readFill(m, gpa>>isa.PageShift, hfn)
		}
		if data == nil {
			clear(buf[:n]) // logically-zero frame
		} else {
			copy(buf[:n], data[off:])
		}
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// WriteSpan copies buf to gpa, resolving each page through the write memo
// with the CPU store path's rules (writeHit/writeFill): a hit writes the
// cached array and coalesces the version bump, so DMA into a page whose
// version was observed (the icache) still bumps it; a miss runs resolveWrite
// in full and installs the page. The write-memo telemetry (WMemoHits/
// WMemoFills) counts CPU stores only.
//
//govisor:pair Write
func (g *GuestPhys) WriteSpan(gpa uint64, buf []byte) *Fault {
	if g.refDMA {
		return g.Write(gpa, buf)
	}
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := min(isa.PageSize-off, len(buf))
		data := g.writeHit(gpa >> isa.PageShift)
		if data == nil {
			hfn, k := g.resolveWrite(gpa)
			if k != FaultNone {
				return faultOf(k, gpa, isa.AccWrite)
			}
			data = g.pool.writable(hfn, false)
			g.writeFill(gpa>>isa.PageShift, data)
		}
		copy(data[off:], buf[:n])
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}
