package mem

import (
	"bytes"
	"testing"

	"govisor/internal/isa"
)

// Shape of the pool-interleaving fuzz: a few spaces on one small multi-shard
// pool, sized so the budget never runs out (every mapped page holds at most
// one frame, plus one in flight during a COW break) yet frame numbers and
// backing arrays are reused constantly.
const (
	ilSpaces = 4
	ilPages  = 6
	ilShards = 4
	ilFrames = ilSpaces*ilPages + ilShards
	ilPoison = 0xA5
)

// ilShadow is the trusted reference for one space: which pages are mapped
// and what each reads as. Sharing is invisible in it — every page has its
// own copy, which is exactly what copy-on-write promises the guest.
type ilShadow struct {
	mapped [ilPages]bool
	ram    [ilPages][isa.PageSize]byte
}

// ilMachine is the system under test plus its shadows.
type ilMachine struct {
	t      *testing.T
	pool   *Pool
	spaces [ilSpaces]*GuestPhys
	shadow [ilSpaces]ilShadow
	buf    []byte
}

func newILMachine(t *testing.T) *ilMachine {
	m := &ilMachine{t: t, pool: NewPoolSharded(ilFrames, ilShards), buf: make([]byte, 2*isa.PageSize)}
	for i := range m.spaces {
		m.spaces[i] = NewGuestPhys(m.pool, ilPages*isa.PageSize)
		m.spaces[i].SetAllocHint(i)
	}
	return m
}

// poisonRetired overwrites every array parked on a retire stack, so a stale
// holder that still reads one sees garbage, and one that still writes one
// corrupts whoever pops it next — both of which the shadow check catches.
func (m *ilMachine) poisonRetired() {
	for i := range m.pool.shards {
		sh := &m.pool.shards[i]
		sh.mu.Lock()
		for _, b := range sh.retired {
			for j := range b {
				b[j] = ilPoison
			}
		}
		sh.mu.Unlock()
	}
}

// expectFault is what the shadow says an access of n bytes at gpa in space
// s runs into first: the kind and the page-aligned (or starting) address of
// the first page that is beyond RAM or unmapped.
func (m *ilMachine) expectFault(s int, gpa uint64, n int) (FaultKind, uint64) {
	for end := gpa + uint64(n); gpa < end; gpa = (gpa | isa.PageMask) + 1 {
		gfn := gpa >> isa.PageShift
		if gfn >= ilPages {
			return FaultBeyondRAM, gpa
		}
		if !m.shadow[s].mapped[gfn] {
			return FaultNotPresent, gpa
		}
	}
	return FaultNone, 0
}

func (m *ilMachine) checkFault(step int, what string, f *Fault, kind FaultKind, gpa uint64) {
	m.t.Helper()
	switch {
	case kind == FaultNone && f != nil:
		m.t.Fatalf("step %d: %s faulted (%v), shadow says mapped", step, what, f)
	case kind != FaultNone && f == nil:
		m.t.Fatalf("step %d: %s succeeded, shadow expects %v at %#x", step, what, kind, gpa)
	case kind != FaultNone && (f.Kind != kind || f.GPA != gpa):
		m.t.Fatalf("step %d: %s faulted %v at %#x, shadow expects %v at %#x", step, what, f.Kind, f.GPA, kind, gpa)
	}
}

// check compares every page of every space with its shadow twice: straight
// from the pool (what the frame holds) and through the read memo (what a
// load or DMA would see), and checks the pool's reference counts against
// the mappings.
func (m *ilMachine) check(step int) {
	m.t.Helper()
	refs := make(map[uint64]uint32)
	page := m.buf[:isa.PageSize]
	for s, g := range m.spaces {
		sh := &m.shadow[s]
		for gfn := uint64(0); gfn < ilPages; gfn++ {
			hfn := g.Frame(gfn)
			if !sh.mapped[gfn] {
				if hfn != NoFrame {
					m.t.Fatalf("step %d: space %d gfn %d maps frame %d, shadow says unmapped", step, s, gfn, hfn)
				}
				_, f := g.ReadUint(gfn<<isa.PageShift, 8)
				m.checkFault(step, "read of an unmapped page", f, FaultNotPresent, gfn<<isa.PageShift)
				continue
			}
			if hfn == NoFrame {
				m.t.Fatalf("step %d: space %d gfn %d unmapped, shadow says mapped", step, s, gfn)
			}
			refs[hfn]++
			want := sh.ram[gfn][:]
			if data := m.pool.Data(hfn); data == nil && !bytes.Equal(want, zeroPage[:]) ||
				data != nil && !bytes.Equal(data, want) {
				m.t.Fatalf("step %d: space %d gfn %d: frame %d content differs from the shadow", step, s, gfn, hfn)
			}
			if f := g.ReadSpan(gfn<<isa.PageShift, page); f != nil || !bytes.Equal(page, want) {
				m.t.Fatalf("step %d: space %d gfn %d: memoized read differs from the shadow (fault %v)", step, s, gfn, f)
			}
		}
	}
	for hfn, n := range refs {
		if rc := m.pool.RefCount(hfn); rc != n {
			m.t.Fatalf("step %d: frame %d has refcount %d but %d mappings", step, hfn, rc, n)
		}
	}
	if got := m.pool.InUse(); got != uint64(len(refs)) {
		m.t.Fatalf("step %d: %d frames in use, %d mapped", step, got, len(refs))
	}
}

var zeroPage [isa.PageSize]byte

// FuzzPoolInterleave drives a randomized interleaving of frame-level
// remaps (Map, MapShared, MarkCOWIfMapped, Unmap), memoized and plain
// stores, loads, DMA spans, page copies and COW breaks across several
// spaces on one pool, and after every step poisons the retired backing
// arrays and checks every space against a shadow copy of its RAM. With
// backing arrays recycled between frames, a holder of a page slice that
// outlives the frame's last reference — a read, write or span memo entry
// missing its invalidation — reads poison or writes into another VM's page,
// and the shadow sees it.
//
// Each step is four bytes: op, then a (space and gfn), b and c (operands).
func FuzzPoolInterleave(f *testing.F) {
	// Memoized store, remap over it, store again: the write memo must
	// forget the old frame (Map's write-epoch bump).
	f.Add([]byte{2, 0, 0, 0, 5, 0, 8, 3, 0, 0, 1, 0, 5, 0, 8, 3})
	// Memoized read, balloon unmap, read: the read memo must forget the
	// page (Unmap's version bump).
	f.Add([]byte{12, 4, 0, 0, 9, 4, 8, 3, 4, 4, 0, 0, 9, 4, 8, 3})
	// A page with content ballooned out and demand-filled again: the
	// recycled array must read as zeros around the first store.
	f.Add([]byte{12, 0, 0, 0, 4, 0, 0, 0, 12, 0, 4, 3})
	// Share a page into another space, store on each side (COW breaks),
	// then drop the canonical owner's copy and refill from the stack.
	f.Add([]byte{2, 1, 0, 0, 5, 1, 16, 3, 1, 2, 1, 0, 5, 2, 24, 3, 5, 1, 32, 2, 4, 1, 0, 0, 0, 3, 1, 0, 5, 3, 0, 0})
	// DMA across a page boundary and off the end of RAM.
	f.Add([]byte{12, 20, 0, 0, 12, 21, 0, 0, 7, 20, 200, 9, 8, 20, 100, 200, 8, 21, 250, 1, 10, 20, 0, 0})
	// Whole-page installs (WriteRaw) over shared and private pages.
	f.Add([]byte{11, 1, 7, 0, 11, 0, 5, 0, 1, 0, 1, 0, 11, 0, 9, 0, 3, 1, 0, 0, 11, 1, 3, 0, 6, 1, 40, 2, 13, 1, 0, 0})
	// Zero installs into a fresh page (it stays without an array), over a
	// private page with content and over a shared one: the last two must
	// clear what the frame held.
	f.Add([]byte{11, 0, 0, 0, 12, 1, 0, 0, 11, 1, 0, 0, 11, 2, 7, 0, 1, 3, 2, 0, 11, 3, 0, 0, 5, 0, 8, 3, 9, 2, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newILMachine(t)
		for i := 0; i+3 < len(data) && i < 4*256; i += 4 {
			m.step(i/4, data[i], data[i+1], data[i+2], data[i+3])
			m.poisonRetired()
			m.check(i / 4)
		}
	})
}

// step applies one fuzz step to the machine and to the shadow.
func (m *ilMachine) step(step int, op, a, b, c byte) {
	s := int(a) % ilSpaces
	gfn := uint64(a) / ilSpaces % ilPages
	g, sh := m.spaces[s], &m.shadow[s]
	size := 1 << (c % 4)
	gpa := gfn<<isa.PageShift | uint64(b)*16%isa.PageSize&^uint64(size-1)
	val := uint64(step+1)*0x0101010101010101 ^ uint64(b)<<8 ^ uint64(c)
	switch op % 14 {
	case 0: // Map a fresh frame, zero or filled whole before it is mapped
		hfn, err := m.pool.AllocNear(int(b))
		if err != nil {
			m.t.Fatalf("step %d: pool exhausted: %v", step, err)
		}
		sh.ram[gfn] = zeroPage
		if b%2 == 1 {
			for j := range sh.ram[gfn] {
				sh.ram[gfn][j] = byte(j) ^ c
			}
			m.pool.WriteAt(hfn, 0, sh.ram[gfn][:])
		}
		g.Map(gfn, hfn)
		sh.mapped[gfn] = true
	case 1: // MapShared: clone another page copy-on-write (the KSM/clone shape)
		src := int(b) % ilSpaces
		sgfn := uint64(b) / ilSpaces % ilPages
		canon := m.spaces[src].Frame(sgfn)
		if canon == NoFrame {
			return
		}
		m.pool.IncRef(canon)
		g.MapShared(gfn, canon)
		m.spaces[src].MarkCOWIfMapped(sgfn, canon)
		sh.ram[gfn] = m.shadow[src].ram[sgfn]
		sh.mapped[gfn] = true
	case 2: // demand populate
		if err := g.Populate(gfn); err != nil {
			m.t.Fatalf("step %d: populate: %v", step, err)
		}
		if !sh.mapped[gfn] {
			sh.ram[gfn] = zeroPage
			sh.mapped[gfn] = true
		}
	case 3: // MarkCOWIfMapped on the page's own frame, or on a stale one
		hfn := g.Frame(gfn)
		if b%2 == 1 && hfn != NoFrame {
			hfn ^= 1
		}
		g.MarkCOWIfMapped(gfn, hfn)
	case 4: // balloon-style unmap
		g.Unmap(gfn)
		sh.mapped[gfn] = false
	case 5, 6: // memoized store (the CPU's store path; double weight)
		kind, at := m.expectFault(s, gpa, size)
		m.checkFault(step, "memoized store", g.WriteUintMemo(gpa, size, val), kind, at)
		if kind == FaultNone {
			writeUintTo(sh.ram[gfn][:], gpa&isa.PageMask, size, val)
		}
	case 7: // plain store (devices and the VMM)
		kind, at := m.expectFault(s, gpa, size)
		m.checkFault(step, "store", g.WriteUint(gpa, size, val), kind, at)
		if kind == FaultNone {
			writeUintTo(sh.ram[gfn][:], gpa&isa.PageMask, size, val)
		}
	case 8: // DMA write, up to two pages, possibly off the end of RAM
		n := 1 + (int(b)<<4|int(c))%len(m.buf)
		span := m.buf[:n]
		for j := range span {
			span[j] = byte(step + j)
		}
		kind, at := m.expectFault(s, gpa, n)
		m.checkFault(step, "span write", g.WriteSpan(gpa, span), kind, at)
		// Pages before the faulting one were written.
		for p, rest := gpa, span; len(rest) > 0; {
			if kind != FaultNone && p >= at {
				break
			}
			k := copy(sh.ram[p>>isa.PageShift][p&isa.PageMask:], rest)
			p, rest = p+uint64(k), rest[k:]
		}
	case 9: // load through the read memo
		kind, at := m.expectFault(s, gpa, size)
		v, f := g.ReadUint(gpa, size)
		m.checkFault(step, "load", f, kind, at)
		if want := readUintFrom(sh.ram[gfn][:], gpa&isa.PageMask, size); kind == FaultNone && v != want {
			m.t.Fatalf("step %d: load at %#x read %#x, shadow %#x", step, gpa, v, want)
		}
	case 10: // DMA read, up to two pages, possibly off the end of RAM
		n := 1 + (int(b)<<4|int(c))%len(m.buf)
		kind, at := m.expectFault(s, gpa, n)
		m.checkFault(step, "span read", g.ReadSpan(gpa, m.buf[:n]), kind, at)
		for p, got := gpa, m.buf[:n]; kind == FaultNone && len(got) > 0; {
			want := sh.ram[p>>isa.PageShift][p&isa.PageMask:]
			k := min(len(got), len(want))
			if !bytes.Equal(got[:k], want[:k]) {
				m.t.Fatalf("step %d: span read at %#x differs from the shadow", step, p)
			}
			p, got = p+uint64(k), got[k:]
		}
	case 11: // whole-page install (migration restore): populates, breaks COW; b = 0 installs zeros
		page := m.buf[:isa.PageSize]
		clear(page)
		if b != 0 {
			for j := range page {
				page[j] = byte(j*int(b|1)) ^ c
			}
		}
		if err := g.WriteRaw(gfn, page); err != nil {
			m.t.Fatalf("step %d: WriteRaw: %v", step, err)
		}
		copy(sh.ram[gfn][:], page)
		sh.mapped[gfn] = true
	case 12: // first write to a page: populate then a memoized store
		if err := g.Populate(gfn); err != nil {
			m.t.Fatalf("step %d: populate: %v", step, err)
		}
		if !sh.mapped[gfn] {
			sh.ram[gfn] = zeroPage
			sh.mapped[gfn] = true
		}
		m.checkFault(step, "first store", g.WriteUintMemo(gpa, size, val), FaultNone, 0)
		writeUintTo(sh.ram[gfn][:], gpa&isa.PageMask, size, val)
	case 13: // icache capture: observe the version, then copy the page
		g.PageVersion(gfn)
		page := m.buf[:isa.PageSize]
		g.ReadRaw(gfn, page)
		want := zeroPage[:]
		if sh.mapped[gfn] {
			want = sh.ram[gfn][:]
		}
		if !bytes.Equal(page, want) {
			m.t.Fatalf("step %d: page capture of space %d gfn %d differs from the shadow", step, s, gfn)
		}
	}
}
