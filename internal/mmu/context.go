package mmu

import (
	"fmt"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/tlb"
)

// Style selects how the vCPU's translations are produced. It is the memory
// half of the virtualization style triad (the privilege half lives in
// internal/vcpu):
//
//   - StyleDirect: the hardware walker walks the tables SATP points at.
//     Used by the native baseline and by paravirtual direct paging, where
//     guest tables are pre-validated by the VMM.
//   - StyleShadow: translations come from VMM-derived shadow tables; a miss
//     suspends the guest (FaultShadowMiss) so the VMM can fill.
//   - StyleNested: the walker walks guest tables, but every step pays the
//     two-dimensional cost of translating guest-physical table pointers
//     through the nested tables ((g+1)·(n+1)−1 references for a full walk).
type Style uint8

// Translation styles.
const (
	StyleDirect Style = iota
	StyleShadow
	StyleNested
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleDirect:
		return "direct"
	case StyleShadow:
		return "shadow"
	case StyleNested:
		return "nested"
	}
	return "style?"
}

// FaultKind classifies translation failures.
type FaultKind uint8

// Translation fault kinds.
const (
	// FaultGuest is an architectural page fault delivered to the guest
	// (invalid PTE, permission violation, non-canonical address).
	FaultGuest FaultKind = iota
	// FaultShadowMiss suspends to the VMM to fill the shadow tables; the
	// guest never observes it.
	FaultShadowMiss
	// FaultHost is a guest-physical failure underneath the walk or the
	// access itself (page not present in the host, write-protected by the
	// VMM); the VMM resolves and retries.
	FaultHost
)

// Fault describes a failed translation.
type Fault struct {
	Kind  FaultKind
	Cause uint64     // guest trap cause (FaultGuest)
	VA    uint64     // faulting virtual address
	Mem   *mem.Fault // underlying host fault (FaultHost)
}

func (f *Fault) Error() string {
	switch f.Kind {
	case FaultGuest:
		return fmt.Sprintf("mmu: guest page fault %s at va %#x", isa.CauseName(f.Cause), f.VA)
	case FaultShadowMiss:
		return "mmu: shadow miss" // one shared value: its VA is not the miss's
	default:
		return fmt.Sprintf("mmu: host fault at va %#x: %v", f.VA, f.Mem)
	}
}

// Stats counts translation activity for the experiments.
type Stats struct {
	Translations uint64
	Walks        uint64
	WalkRefs     uint64 // 1-D page-table references
	NestedRefs   uint64 // additional references paid to the nested dimension
	GuestFaults  uint64
	ShadowMisses uint64
}

// Context is one vCPU's translation state.
type Context struct {
	Mem    *mem.GuestPhys
	TLB    *tlb.TLB
	Style  Style
	Shadow *Engine // required iff Style == StyleShadow

	// UseASID keeps TLB entries alive across address-space switches by
	// tagging them; when false, every SATP write flushes the whole TLB
	// (ablation A2).
	UseASID bool

	Satp  uint64
	Stats Stats

	// The translation memos: the last instruction fetch, and small
	// direct-mapped caches of recent load and store translations.
	fetch FetchSnap
	data  [dataMemoSlots]FetchSnap
	write [dataMemoSlots]FetchSnap
}

// dataMemoSlots is the size of the per-context data and write memos,
// direct-mapped caches indexed by low VPN bits. Small on purpose: they only
// need to cover the handful of pages a straight-line loop streams through
// (source, destination, stack); the TLB proper covers the rest.
const dataMemoSlots = 8

// FetchSnap is one memoized translation: the fetch memo, each data and write
// memo slot, and — exported — the validation token the vCPU's block-chain
// cache keeps per link (SnapFetch). It holds only while nothing that could
// change the outcome has happened: same SATP (same address space and paging
// mode), same privilege, same virtual page, and, when paging is on, no TLB
// insert or flush since (checked against the TLB generation counter, so the
// entry, its permissions and the fill-time permission check all still
// stand). Unpaged fills store ppn = vpn, so a hit's address is ppn<<12|offset
// either way. Validity is proven on every use, never assumed, so a snapshot
// is safe to hold indefinitely.
type FetchSnap struct {
	valid bool
	paged bool
	user  bool
	satp  uint64
	vpn   uint64
	gen   uint64
	entry *tlb.Entry
	ppn   uint64
}

// NewContext builds a context with the default TLB geometry.
func NewContext(m *mem.GuestPhys, style Style) *Context {
	c := &Context{
		Mem:     m,
		TLB:     tlb.NewDefault(),
		Style:   style,
		UseASID: true,
	}
	if style == StyleShadow {
		c.Shadow = NewEngine(m)
		c.Shadow.tlb = c.TLB
	}
	return c
}

func (c *Context) asid() uint16 {
	if !c.UseASID {
		return 0
	}
	return isa.SatpASID(c.Satp)
}

// SetSatp installs a new SATP value, performing the architectural TLB
// maintenance (full flush when ASIDs are off; nothing otherwise, entries are
// tagged).
func (c *Context) SetSatp(satp uint64) {
	c.Satp = satp
	if !c.UseASID {
		c.TLB.FlushAll()
	}
}

// Flush implements SFENCE.VMA semantics: va==0 flushes the address space
// (or everything without ASIDs), otherwise one page.
func (c *Context) Flush(va uint64, asid uint16) {
	switch {
	case va == 0 && (asid == 0 || !c.UseASID):
		c.TLB.FlushAll()
	case va == 0:
		c.TLB.FlushASID(asid)
	default:
		c.TLB.FlushPage(c.asid(), va)
	}
	if c.Shadow != nil {
		root := isa.SatpPPN(c.Satp)
		if va == 0 {
			c.Shadow.FlushSpace(root)
		} else {
			c.Shadow.FlushVA(root, va)
		}
	}
}

// Enabled reports whether paged translation is active.
func (c *Context) Enabled() bool { return isa.SatpMode(c.Satp) == isa.SatpModePaged }

// Translate maps va to a guest-physical address for the given access from
// the given (virtual) privilege. It returns the number of page-table memory
// references the access cost, which the interpreter converts to cycles. It
// reads no memo: the reference engine relies on that.
func (c *Context) Translate(va uint64, acc isa.Access, userMode bool) (gpa uint64, refs int, fault *Fault) {
	var unused FetchSnap
	return c.fill(&unused, va, acc, userMode)
}

// CheckFetchSnap is the one validity rule of a memoized translation: it
// reports whether s still provably describes what a fresh translation of va
// from this privilege would do. It performs no bookkeeping, so it may be
// called any number of times without perturbing the statistics the
// differential suites compare — the trace engine uses it to pre-validate
// every constituent page of a hot trace at entry.
func (c *Context) CheckFetchSnap(s *FetchSnap, va uint64, userMode bool) bool {
	return s.valid && s.satp == c.Satp && s.user == userMode && s.vpn == va>>isa.PageShift &&
		(!s.paged || s.gen == c.TLB.Gen())
}

// hit is the memo hit rule shared by every memoized translation: when s
// still holds for va (CheckFetchSnap) it performs exactly the bookkeeping a
// full translation that hits the TLB performs — translation count and, when
// paged, the entry's LRU stamp and the TLB hit count — and reports true;
// otherwise it performs nothing.
func (c *Context) hit(s *FetchSnap, va uint64, userMode bool) bool {
	if !c.CheckFetchSnap(s, va, userMode) {
		return false
	}
	c.Stats.Translations++
	if s.paged {
		c.TLB.Touch(s.entry)
	}
	return true
}

// fill is the one translation body: the full translation of va for access
// acc, installing the result in m when it came from the TLB or paging is off
// (a walk or a shadow fill inserts into the TLB, so the next call fills from
// there). It never reads m, so Translate runs it on a throwaway memo and
// every memo miss path runs it on its own.
func (c *Context) fill(m *FetchSnap, va uint64, acc isa.Access, userMode bool) (gpa uint64, refs int, fault *Fault) {
	m.valid = false
	c.Stats.Translations++
	vpn := va >> isa.PageShift
	if !c.Enabled() {
		*m = FetchSnap{valid: true, satp: c.Satp, user: userMode, vpn: vpn, ppn: vpn}
		return va, 0, nil
	}
	asid := c.asid()
	if e, ok := c.TLB.LookupRef(asid, va); ok {
		if denied(e.Perms, acc, userMode) {
			return 0, 0, c.guestFault(acc, va)
		}
		*m = FetchSnap{valid: true, paged: true, satp: c.Satp, user: userMode,
			vpn: vpn, gen: c.TLB.Gen(), entry: e, ppn: e.PPN}
		return e.PPN<<isa.PageShift | va&isa.PageMask, 0, nil
	}
	switch c.Style {
	case StyleShadow:
		return c.translateShadow(va, acc, userMode, asid)
	default:
		return c.translateWalk(va, acc, userMode, asid)
	}
}

// TranslateFetch is Translate specialized for instruction fetch (AccExec).
// Behaviour, cycle charging and every statistic are identical to calling
// Translate(va, isa.AccExec, userMode); consecutive fetches from the same
// page skip the TLB set scan through the fetch memo. The access kind is
// fixed, so the fill-time execute-permission check stands while the memo
// holds.
func (c *Context) TranslateFetch(va uint64, userMode bool) (gpa uint64, refs int, fault *Fault) {
	m := &c.fetch
	if c.hit(m, va, userMode) {
		return m.ppn<<isa.PageShift | va&isa.PageMask, 0, nil
	}
	return c.fill(m, va, isa.AccExec, userMode)
}

// SnapFetch captures the current fetch memo. Meaningful immediately after a
// successful TranslateFetch, when the memo covers that fetch's page.
func (c *Context) SnapFetch() FetchSnap { return c.fetch }

// ChainFetch replays the accounting of an instruction fetch of va from a
// previously snapshotted translation: the memo hit rule applied to the
// snapshot. On success it performs exactly the bookkeeping of a fetch-memo
// hit and installs the snapshot as the live fetch memo, so in-block
// ReplayFetchSpan continues on the chained page. On failure it performs
// nothing and the caller must take the full fetch path.
func (c *Context) ChainFetch(s *FetchSnap, va uint64, userMode bool) bool {
	if !c.hit(s, va, userMode) {
		return false
	}
	c.fetch = *s
	return true
}

// ReplayFetchSpan replays the accounting of n more instruction fetches from
// va on the virtual page the fetch memo currently covers — the block
// engines' per-instruction fetch, where the block entry already performed
// the real TranslateFetch. One memo validation, then the batched bookkeeping
// (n translations, TLB.TouchN): bit-identical to n fetch-memo hits in a row.
// It returns false (performing nothing) when the memo cannot prove the
// replay exact — unset, a different page, or a TLB insert/flush since the
// memo was filled — and the caller must fall back to the full fetch path.
// Callers guarantee SATP and the privilege level are unchanged since the
// memo was filled (inside a block neither can change: CSR writes and traps
// both end the block before the next fetch), which is why this is the hit
// rule minus those two compares — spelled out rather than shared, because
// it runs once per retired instruction. For n > 1 the caller also proves
// that nothing between the folded fetches can touch the TLB or this memo:
// the block engines fold only straight-line spans containing no memory
// operations (pure ALU cannot trap, flush, insert or re-translate).
func (c *Context) ReplayFetchSpan(va, n uint64) bool {
	m := &c.fetch
	if !m.valid || va>>isa.PageShift != m.vpn {
		return false
	}
	if !m.paged {
		c.Stats.Translations += n
		return true
	}
	if c.TLB.Gen() != m.gen {
		return false
	}
	c.Stats.Translations += n
	c.TLB.TouchN(m.entry, n)
	return true
}

// TranslateData is Translate specialized for loads and stores. Behaviour,
// cycle charging and every statistic are identical to calling Translate with
// the same arguments; repeated accesses to recently used data pages skip the
// TLB set scan through the data memo. The access kind varies per call, so
// unlike the fetch and write memos a hit rechecks permissions against the
// live TLB entry: a page readable but not writable faults on stores exactly
// as the full path does.
func (c *Context) TranslateData(va uint64, acc isa.Access, userMode bool) (gpa uint64, refs int, fault *Fault) {
	m := &c.data[va>>isa.PageShift&(dataMemoSlots-1)]
	if !c.hit(m, va, userMode) {
		return c.fill(m, va, acc, userMode)
	}
	if m.paged {
		if denied(m.entry.Perms, acc, userMode) {
			return 0, 0, c.guestFault(acc, va)
		}
	}
	return m.ppn<<isa.PageShift | va&isa.PageMask, 0, nil
}

// TranslateWrite is Translate specialized for stores (AccWrite). Behaviour,
// cycle charging and every statistic are identical to calling Translate(va,
// isa.AccWrite, userMode); repeated stores to recently used pages skip the
// TLB set scan through the write memo. Because the access kind is fixed, the
// fill-time write-permission check stands while the memo holds, so — like
// the fetch memo, and unlike TranslateData — a hit skips the per-access
// permission recheck. Write-denied pages never fill the memo; stores to them
// take the full path and fault with identical statistics.
func (c *Context) TranslateWrite(va uint64, userMode bool) (gpa uint64, refs int, fault *Fault) {
	m := &c.write[va>>isa.PageShift&(dataMemoSlots-1)]
	if c.hit(m, va, userMode) {
		return m.ppn<<isa.PageShift | va&isa.PageMask, 0, nil
	}
	return c.fill(m, va, isa.AccWrite, userMode)
}

// MaxWalkRefs returns an upper bound on the page-table references a single
// translation can cost in the current configuration — the superblock
// engine's worst case when bounding a block's cycle span. With paging
// disabled translations are free; a 1-D walk references at most PTLevels
// entries; nested paging pays the 2-D surcharge on a full walk.
func (c *Context) MaxWalkRefs() uint64 {
	if !c.Enabled() {
		return 0
	}
	refs := uint64(isa.PTLevels)
	if c.Style == StyleNested {
		refs += (refs + 1) * isa.PTLevels
	}
	return refs
}

// denied is the one permission rule: it reports whether translation
// permissions perms (tlb.Perm* bits; a walk converts its leaf PTE with
// tlb.PermsFromPTE) forbid an access from a privilege level. Supervisor mode
// may access user pages (SUM behaviour is always-on in GV64); user mode may
// only touch PermU pages.
func denied(perms uint8, acc isa.Access, userMode bool) bool {
	if userMode && perms&tlb.PermU == 0 {
		return true
	}
	switch acc {
	case isa.AccRead:
		return perms&tlb.PermR == 0
	case isa.AccWrite:
		return perms&tlb.PermW == 0
	default:
		return perms&tlb.PermX == 0
	}
}

func (c *Context) guestFault(acc isa.Access, va uint64) *Fault {
	c.Stats.GuestFaults++
	return &Fault{Kind: FaultGuest, Cause: isa.PageFaultCause(acc), VA: va}
}

func (c *Context) translateWalk(va uint64, acc isa.Access, userMode bool, asid uint16) (uint64, int, *Fault) {
	c.Stats.Walks++
	wr, werr := Walk(c.Mem, isa.SatpPPN(c.Satp), va)
	refs := wr.Refs
	if c.Style == StyleNested {
		// Each guest PTE reference is itself translated through the nested
		// tables, and the final guest-physical address pays one more nested
		// walk: (g+1)(n+1)−1 total references for a full 2-D walk, with
		// nested tables as deep as the guest's (isa.PTLevels).
		extra := (wr.Refs + 1) * isa.PTLevels
		refs += extra
		c.Stats.NestedRefs += uint64(extra)
	}
	c.Stats.WalkRefs += uint64(wr.Refs)
	if werr != nil && werr.Fault != nil {
		return 0, refs, &Fault{Kind: FaultHost, VA: va, Mem: werr.Fault}
	}
	perms := tlb.PermsFromPTE(wr.PTE)
	if werr != nil || denied(perms, acc, userMode) {
		return 0, refs, c.guestFault(acc, va)
	}
	c.TLB.Insert(asid, va, wr.GPA>>isa.PageShift, perms, wr.PTE&isa.PTEGlobal != 0)
	return wr.GPA, refs, nil
}

// shadowMiss is the fault every shadow miss returns: one shared value that
// nothing modifies, so a miss allocates nothing. Its VA is zero; the caller
// knows the address it translated.
var shadowMiss = &Fault{Kind: FaultShadowMiss}

func (c *Context) translateShadow(va uint64, acc isa.Access, userMode bool, asid uint16) (uint64, int, *Fault) {
	root := isa.SatpPPN(c.Satp)
	e, ok := c.Shadow.Lookup(root, va)
	if !ok {
		c.Stats.ShadowMisses++
		return 0, 0, shadowMiss
	}
	// Walking the shadow tables costs the same as a 1-D walk: that is the
	// architectural benefit of shadow paging over nested paging.
	refs := isa.PTLevels
	c.Stats.Walks++
	c.Stats.WalkRefs += uint64(refs)
	if denied(e.Perms, acc, userMode) {
		return 0, refs, c.guestFault(acc, va)
	}
	gpa := e.PPN<<isa.PageShift | va&isa.PageMask
	c.TLB.Insert(asid, va, e.PPN, e.Perms, e.Global)
	return gpa, refs, nil
}
