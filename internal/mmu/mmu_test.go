package mmu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// newSpace creates a populated guest-physical space of npages pages.
func newSpace(t *testing.T, npages uint64) *mem.GuestPhys {
	t.Helper()
	g := mem.NewGuestPhys(mem.NewPool(npages*2+64), npages*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	return g
}

// buildIdentity builds identity tables over the first `bytes` of RAM with
// table pages allocated starting at tablePPN, and returns the root PPN.
func buildIdentity(t *testing.T, g *mem.GuestPhys, bytes, tablePPN uint64, flags uint64) uint64 {
	t.Helper()
	tb, err := NewTableBuilder(g, tablePPN, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.IdentityMap(bytes, flags); err != nil {
		t.Fatal(err)
	}
	return tb.RootPPN
}

func TestWalk4K(t *testing.T) {
	g := newSpace(t, 64)
	tb, err := NewTableBuilder(g, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x4000, 0x7000, isa.PTERead|isa.PTEWrite); err != nil {
		t.Fatal(err)
	}
	wr, werr := Walk(g, tb.RootPPN, 0x4123)
	if werr != nil {
		t.Fatal(werr)
	}
	if wr.GPA != 0x7123 {
		t.Fatalf("gpa = %#x", wr.GPA)
	}
	if wr.Level != 0 || wr.Refs != 3 {
		t.Fatalf("level %d refs %d", wr.Level, wr.Refs)
	}
	if wr.Plen != 3 {
		t.Fatalf("path len = %d", wr.Plen)
	}
}

func TestWalkSuperpage(t *testing.T) {
	g := newSpace(t, 16)
	tb, err := NewTableBuilder(g, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MapSuper(isa.MegaPageSize, 0, isa.PTERead|isa.PTEExec); err != nil {
		t.Fatal(err)
	}
	va := uint64(isa.MegaPageSize) + 0x1234
	wr, werr := Walk(g, tb.RootPPN, va)
	if werr != nil {
		t.Fatal(werr)
	}
	if wr.GPA != 0x1234 {
		t.Fatalf("gpa = %#x", wr.GPA)
	}
	if wr.Level != 1 || wr.Refs != 2 {
		t.Fatalf("level %d refs %d (superpage should cut one ref)", wr.Level, wr.Refs)
	}
}

func TestWalkInvalidPTE(t *testing.T) {
	g := newSpace(t, 16)
	tb, _ := NewTableBuilder(g, 8, 8)
	tb.Map(0x1000, 0x2000, isa.PTERead)
	if _, werr := Walk(g, tb.RootPPN, 0x9000_0000); werr == nil || werr.Fault != nil {
		t.Fatalf("expected architectural fault, got %v", werr)
	}
}

func TestWalkNonCanonical(t *testing.T) {
	g := newSpace(t, 4)
	if _, werr := Walk(g, 0, uint64(1)<<isa.VABits); werr == nil {
		t.Fatal("expected fault for non-canonical va")
	}
}

func TestWalkMisalignedSuperpageRejected(t *testing.T) {
	g := newSpace(t, 16)
	tb, _ := NewTableBuilder(g, 8, 8)
	// Hand-craft a misaligned superpage leaf at level 1.
	rootAddr := tb.RootPPN << isa.PageShift
	l1ppn, _ := g.Pool().Alloc()
	_ = l1ppn
	// Build: root[0] → table at ppn 9; table9[0] = leaf with unaligned ppn 3.
	g.WriteUintPriv(rootAddr, 8, isa.MakePTE(9, isa.PTEValid))
	g.WriteUintPriv(9<<isa.PageShift, 8, isa.MakePTE(3, isa.PTEValid|isa.PTERead))
	if _, werr := Walk(g, tb.RootPPN, 0); werr == nil {
		t.Fatal("misaligned superpage should fault")
	}
}

func TestWalkHostFaultEscalates(t *testing.T) {
	g := newSpace(t, 16)
	tb, _ := NewTableBuilder(g, 8, 8)
	tb.Map(0x1000, 0x2000, isa.PTERead)
	// Balloon out the root table page → walk must report a host fault.
	g.Unmap(tb.RootPPN)
	_, werr := Walk(g, tb.RootPPN, 0x1000)
	if werr == nil || werr.Fault == nil || werr.Fault.Kind != mem.FaultNotPresent {
		t.Fatalf("werr = %v", werr)
	}
}

func TestTableBuilderRegionExhaustion(t *testing.T) {
	g := newSpace(t, 8)
	tb, err := NewTableBuilder(g, 4, 1) // room for the root only
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0, 0, isa.PTERead); err == nil {
		t.Fatal("expected table region exhaustion")
	}
}

// TestTableBuilderDescentErrors drives Map, EnsureL0 and Unmap through every
// way the builder's one table descent stops short — a va under a 2 MiB
// superpage, a non-canonical va (1<<VABits aliases a mapped page in every
// table index), absent tables under Unmap, and a region exhausted
// mid-descent — and checks the table region against a snapshot taken
// before the call.
func TestTableBuilderDescentErrors(t *testing.T) {
	const (
		start  = 32                   // first table page
		region = 4                    // root, the L1 and L0 below, one spare
		super  = isa.MegaPageSize     // a 2 MiB superpage at [2, 4) MiB
		page   = 0x4000               // a mapped 4 KiB page
		alias  = page | 1<<isa.VABits // page's table indices, not canonical
		far    = 1 << 30              // root slot 1: no tables below it
	)
	mapTo := func(va uint64) func(*TableBuilder) error {
		return func(tb *TableBuilder) error { return tb.Map(va, 0x7000, isa.PTERead) }
	}
	ensureL0 := func(va uint64) func(*TableBuilder) error {
		return func(tb *TableBuilder) error { _, err := tb.EnsureL0(va); return err }
	}
	unmap := func(va uint64) func(*TableBuilder) error {
		return func(tb *TableBuilder) error { return tb.Unmap(va) }
	}
	for _, tc := range []struct {
		name    string
		op      func(*TableBuilder) error
		wantErr bool
		grows   bool // the descent allocated one table before failing
	}{
		{"Map under superpage", mapTo(super + 0x1000), true, false},
		{"EnsureL0 under superpage", ensureL0(super + 0x1000), true, false},
		{"Unmap under superpage", unmap(super + 0x1000), true, false},
		{"Map non-canonical", mapTo(alias), true, false},
		{"EnsureL0 non-canonical", ensureL0(alias), true, false},
		{"Unmap non-canonical", unmap(alias), true, false},
		{"Unmap absent tables", unmap(far), false, false},
		{"Map exhausts region mid-descent", mapTo(far), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSpace(t, 64)
			tb, err := NewTableBuilder(g, start, region)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.MapSuper(super, 0, isa.PTERead); err != nil {
				t.Fatal(err)
			}
			if err := tb.Map(page, 0x7000, isa.PTERead); err != nil {
				t.Fatal(err)
			}
			before := make([]byte, region*isa.PageSize)
			after := make([]byte, region*isa.PageSize)
			if f := g.Read(start<<isa.PageShift, before); f != nil {
				t.Fatal(f)
			}
			pages := tb.Pages

			err = tc.op(tb)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if f := g.Read(start<<isa.PageShift, after); f != nil {
				t.Fatal(f)
			}
			if tc.grows {
				// The only write is the root's pointer to the new, still
				// empty table: the tables stay well formed.
				if tb.Pages != pages+1 {
					t.Fatalf("pages %d → %d, want one more", pages, tb.Pages)
				}
				slot := isa.VPN(far, isa.PTLevels-1) * 8
				binary.LittleEndian.PutUint64(before[slot:], isa.MakePTE(start+uint64(pages), isa.PTEValid))
			} else if tb.Pages != pages {
				t.Fatalf("pages %d → %d, want no allocation", pages, tb.Pages)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("table pages changed")
			}
		})
	}
}

func ctxDirect(t *testing.T, g *mem.GuestPhys, root uint64) *Context {
	t.Helper()
	c := NewContext(g, StyleDirect)
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))
	return c
}

func TestTranslateBareMode(t *testing.T) {
	g := newSpace(t, 4)
	c := NewContext(g, StyleDirect)
	gpa, refs, f := c.Translate(0x2345, isa.AccWrite, false)
	if f != nil || gpa != 0x2345 || refs != 0 {
		t.Fatalf("bare: %#x %d %v", gpa, refs, f)
	}
}

func TestTranslateDirectWalkThenTLBHit(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite|isa.PTEExec)
	c := ctxDirect(t, g, root)

	gpa, refs, f := c.Translate(0x3008, isa.AccRead, false)
	if f != nil || gpa != 0x3008 {
		t.Fatalf("first: %#x %v", gpa, f)
	}
	if refs == 0 {
		t.Fatal("first access should pay walk refs")
	}
	gpa, refs, f = c.Translate(0x3010, isa.AccWrite, false)
	if f != nil || gpa != 0x3010 || refs != 0 {
		t.Fatalf("TLB hit should be free: %#x %d %v", gpa, refs, f)
	}
	if c.TLB.Stats.Hits != 1 {
		t.Fatalf("tlb hits = %d", c.TLB.Stats.Hits)
	}
}

func TestTranslatePermissionFaults(t *testing.T) {
	g := newSpace(t, 64)
	tb, _ := NewTableBuilder(g, 32, 16)
	tb.Map(0x1000, 0x1000, isa.PTERead)             // read-only
	tb.Map(0x2000, 0x2000, isa.PTERead|isa.PTEUser) // user page
	root := tb.RootPPN
	c := ctxDirect(t, g, root)

	if _, _, f := c.Translate(0x1000, isa.AccWrite, false); f == nil || f.Kind != FaultGuest || f.Cause != isa.CauseStorePageFault {
		t.Fatalf("write to RO: %v", f)
	}
	// Same check must hold via the TLB-hit path.
	if _, _, f := c.Translate(0x1000, isa.AccRead, false); f != nil {
		t.Fatalf("read RO: %v", f)
	}
	if _, _, f := c.Translate(0x1000, isa.AccWrite, false); f == nil {
		t.Fatal("write to RO via TLB should still fault")
	}
	// User page from U-mode ok; kernel-only page from U-mode faults.
	if _, _, f := c.Translate(0x2000, isa.AccRead, true); f != nil {
		t.Fatalf("user read of U page: %v", f)
	}
	if _, _, f := c.Translate(0x1000, isa.AccRead, true); f == nil {
		t.Fatal("user access to kernel page should fault")
	}
	// Exec on non-exec page.
	if _, _, f := c.Translate(0x1000, isa.AccExec, false); f == nil || f.Cause != isa.CauseInstrPageFault {
		t.Fatalf("exec fault: %v", f)
	}
}

func TestTranslateNestedCost(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	cd := ctxDirect(t, g, root)
	_, refsDirect, f := cd.Translate(0x3000, isa.AccRead, false)
	if f != nil {
		t.Fatal(f)
	}

	g2 := newSpace(t, 64)
	root2 := buildIdentity(t, g2, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	cn := NewContext(g2, StyleNested)
	cn.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root2))
	_, refsNested, f := cn.Translate(0x3000, isa.AccRead, false)
	if f != nil {
		t.Fatal(f)
	}

	// 2-D walk: (g+1)(n+1)−1 with g = n = refsDirect.
	want := (refsDirect+1)*(isa.PTLevels+1) - 1
	if refsNested != want {
		t.Fatalf("nested refs = %d, want %d (direct %d)", refsNested, want, refsDirect)
	}
	// After the fill, the TLB hides the 2-D cost.
	_, refs2, _ := cn.Translate(0x3000, isa.AccRead, false)
	if refs2 != 0 {
		t.Fatalf("nested TLB hit should be free, got %d", refs2)
	}
}

func TestTranslateASIDSwitch(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	c := ctxDirect(t, g, root)
	c.Translate(0x1000, isa.AccRead, false) // fill asid 1

	// Switch to asid 2 (same tables): entry invisible, refill needed.
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 2, root))
	_, refs, _ := c.Translate(0x1000, isa.AccRead, false)
	if refs == 0 {
		t.Fatal("asid 2 should not reuse asid 1 entries")
	}
	// Switching back: with ASIDs, old entry still live.
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))
	_, refs, _ = c.Translate(0x1000, isa.AccRead, false)
	if refs != 0 {
		t.Fatal("asid 1 entry should have survived the switch")
	}

	// Without ASIDs every switch flushes.
	c.UseASID = false
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))
	_, refs, _ = c.Translate(0x1000, isa.AccRead, false)
	if refs == 0 {
		t.Fatal("no-ASID mode must flush on satp write")
	}
}

func TestShadowMissFillHit(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	c := NewContext(g, StyleShadow)
	c.SetSatp(isa.MakeSatp(isa.SatpModePaged, 1, root))

	// First access: shadow miss escalates to the VMM.
	_, _, f := c.Translate(0x5000, isa.AccRead, false)
	if f == nil || f.Kind != FaultShadowMiss {
		t.Fatalf("want shadow miss, got %v", f)
	}
	// VMM fills.
	refs, ff := c.Shadow.Fill(root, 0x5000, isa.AccRead, false)
	if ff != nil {
		t.Fatal(ff)
	}
	if refs != 3 {
		t.Fatalf("fill refs = %d", refs)
	}
	// Retry: now resolved through the shadow space.
	gpa, refs2, f := c.Translate(0x5000, isa.AccRead, false)
	if f != nil || gpa != 0x5000 {
		t.Fatalf("after fill: %#x %v", gpa, f)
	}
	if refs2 != isa.PTLevels {
		t.Fatalf("shadow walk refs = %d", refs2)
	}
	// And the third time through the TLB, free.
	_, refs3, _ := c.Translate(0x5000, isa.AccRead, false)
	if refs3 != 0 {
		t.Fatalf("TLB hit refs = %d", refs3)
	}
}

func TestShadowWriteProtectsGuestTables(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	e := NewEngine(g)
	if _, f := e.Fill(root, 0x5000, isa.AccRead, false); f != nil {
		t.Fatal(f)
	}
	if !g.WriteProtected(root) {
		t.Fatal("root table page must be write-protected after fill")
	}
	if !e.IsPTPage(root) {
		t.Fatal("root should be tracked as PT page")
	}
	// A guest write to the root page must fault.
	if f := g.WriteUint(root<<isa.PageShift, 8, 0); f == nil || f.Kind != mem.FaultWriteProt {
		t.Fatalf("guest PT write: %v", f)
	}
}

func TestShadowInvalidateOnPTWrite(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	e := NewEngine(g)
	e.Fill(root, 0x5000, isa.AccRead, false)
	e.Fill(root, 0x6000, isa.AccRead, false)
	if entryCount(e, root) != 2 {
		t.Fatalf("entries = %d", entryCount(e, root))
	}
	flush := e.InvalidatePTWrite(root)
	if len(flush) != 2 {
		t.Fatalf("flush list = %v", flush)
	}
	if entryCount(e, root) != 0 {
		t.Fatal("entries should be dropped")
	}
	if g.WriteProtected(root) {
		t.Fatal("protection should be released")
	}
	if e.Stats.PTWriteTraps != 1 || e.Stats.Invalidations != 2 {
		t.Fatalf("stats = %+v", e.Stats)
	}
}

func TestShadowSpacesCachedPerRoot(t *testing.T) {
	g := newSpace(t, 128)
	rootA := buildIdentity(t, g, 8*isa.PageSize, 64, isa.PTERead|isa.PTEWrite)
	rootB := buildIdentity(t, g, 8*isa.PageSize, 96, isa.PTERead)
	e := NewEngine(g)
	e.Fill(rootA, 0x1000, isa.AccRead, false)
	e.Fill(rootB, 0x2000, isa.AccRead, false)
	if _, ok := e.Lookup(rootA, 0x1000); !ok {
		t.Fatal("rootA entry missing")
	}
	if _, ok := e.Lookup(rootB, 0x1000); ok {
		t.Fatal("rootB should not see rootA's entry")
	}
	if e.Stats.Spaces != 2 {
		t.Fatalf("spaces = %d", e.Stats.Spaces)
	}
	e.FlushSpace(rootA)
	if _, ok := e.Lookup(rootA, 0x1000); ok {
		t.Fatal("flush should drop rootA entries")
	}
	if _, ok := e.Lookup(rootB, 0x2000); !ok {
		t.Fatal("rootB must survive rootA flush")
	}
}

func TestShadowFillFaultsOnUnmappedVA(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 4*isa.PageSize, 32, isa.PTERead)
	e := NewEngine(g)
	_, f := e.Fill(root, 0x40_0000, isa.AccRead, false)
	if f == nil || f.Kind != FaultGuest {
		t.Fatalf("fill of unmapped va: %v", f)
	}
}

func TestShadowDropAllReleasesProtection(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 8*isa.PageSize, 32, isa.PTERead)
	e := NewEngine(g)
	e.Fill(root, 0x1000, isa.AccRead, false)
	e.DropAll()
	if g.WriteProtected(root) {
		t.Fatal("DropAll must unprotect")
	}
	if _, ok := e.Lookup(root, 0x1000); ok {
		t.Fatal("DropAll must drop entries")
	}
}

func TestContextFlushSFENCE(t *testing.T) {
	g := newSpace(t, 64)
	root := buildIdentity(t, g, 16*isa.PageSize, 32, isa.PTERead|isa.PTEWrite)
	c := ctxDirect(t, g, root)
	c.Translate(0x1000, isa.AccRead, false)
	c.Flush(0x1000, 0) // single page
	_, refs, _ := c.Translate(0x1000, isa.AccRead, false)
	if refs == 0 {
		t.Fatal("page flush should force a rewalk")
	}
	c.Translate(0x2000, isa.AccRead, false)
	c.Flush(0, 0) // everything
	_, refs, _ = c.Translate(0x2000, isa.AccRead, false)
	if refs == 0 {
		t.Fatal("full flush should force a rewalk")
	}
}
