package core

import (
	"strings"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
	"govisor/internal/sched"
	"govisor/internal/virtio"
)

const (
	tRAM   = 1 << 20
	tPool  = 8 << 20 >> isa.PageShift
	budget = 500_000_000
)

// miniProgram assembles a tiny standalone guest.
func miniProgram(t *testing.T, build func(b *asm.Builder)) []byte {
	t.Helper()
	b := asm.NewBuilder(gabi.KernelBase)
	build(b)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newTestVM(t *testing.T, mode Mode) *VM {
	t.Helper()
	vm, err := NewVM(mem.NewPool(tPool), Config{Name: "t", Mode: mode, MemBytes: tRAM})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestVMRejectsTinyMemory(t *testing.T) {
	if _, err := NewVM(mem.NewPool(64), Config{Name: "x", MemBytes: 1024}); err == nil {
		t.Fatal("tiny VM accepted")
	}
}

func TestBootRejectsDoubleBootAndHugeKernel(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) { b.Halt(0) })
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(img); err == nil {
		t.Fatal("double boot accepted")
	}
	vm2 := newTestVM(t, ModeNative)
	if err := vm2.Boot(make([]byte, tRAM)); err == nil {
		t.Fatal("oversized kernel accepted")
	}
}

func TestHypercallConsoleOutput(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		for _, ch := range "hi\n" {
			b.Li(isa.RegA0, uint64(ch))
			b.Li(isa.RegA7, gabi.HCPutchar)
			b.Ecall()
		}
		// HCPuts with a string in memory.
		b.La(isa.RegA0, "msg")
		b.Li(isa.RegA7, gabi.HCPuts)
		b.Ecall()
		b.Halt(0)
		b.Label("msg")
		b.Asciiz("govisor")
	})
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	if got := vm.Output(); got != "hi\ngovisor" {
		t.Fatalf("output %q", got)
	}
}

func TestHypercallUnknownReturnsENoSys(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA7, 9999)
		b.Ecall()
		// a0 now holds the error; halt with it truncated.
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v", st)
	}
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != gabi.HCENoSys {
		t.Fatalf("ret = %#x", v)
	}
}

func TestHypercallExit(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA0, 42)
		b.Li(isa.RegA7, gabi.HCExit)
		b.Ecall()
		b.Halt(7) // unreachable
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v", st)
	}
	if vm.HaltCode != 42 {
		t.Fatalf("halt code %d", vm.HaltCode)
	}
}

func TestParaMapValidation(t *testing.T) {
	vm := newTestVM(t, ModePara)
	img := miniProgram(t, func(b *asm.Builder) {
		// Attempt to map the PT region itself (forbidden).
		b.Li(isa.RegA0, ChurnWindowVA)
		b.Li(isa.RegA1, tRAM-isa.PageSize) // inside the reserved tables
		b.Li(isa.RegA2, isa.PTERead|isa.PTEWrite)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		// Misaligned va (not page aligned).
		b.Li(isa.RegA0, ChurnWindowVA+123)
		b.Li(isa.RegA1, 0x10000)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x108)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	v1, _ := vm.Mem.ReadUint(0x100, 8)
	v2, _ := vm.Mem.ReadUint(0x108, 8)
	if v1 != gabi.HCEInval || v2 != gabi.HCEInval {
		t.Fatalf("rets = %#x, %#x", v1, v2)
	}
}

// TestParaUnmapRejectsNonCanonicalAlias unmaps va|1<<VABits, whose table
// indices are va's. The hypercall must fail and leave va's mapping, its
// warm TLB entry and the ParaMaps count as they were; clearing va's PTE
// while flushing the alias's TLB page would leave a stale translation.
func TestParaUnmapRejectsNonCanonicalAlias(t *testing.T) {
	const pa = 0x10000
	vm := newTestVM(t, ModePara)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Load(isa.OpLD, isa.RegT0, isa.RegA0, gabi.PSatp*8)
		b.Csrw(isa.CSRSatp, isa.RegT0)
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Li(isa.RegA0, ChurnWindowVA)
		b.Li(isa.RegA1, pa)
		b.Li(isa.RegA2, isa.PTERead|isa.PTEWrite)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		// Warm the TLB through the new mapping.
		b.Li(isa.RegT1, ChurnWindowVA)
		b.Li(isa.RegT2, 0x5a)
		b.Store(isa.OpSD, isa.RegT2, isa.RegT1, 0)
		b.Li(isa.RegA0, ChurnWindowVA|1<<isa.VABits)
		b.Li(isa.RegA7, gabi.HCMMUUnmap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	if v, _ := vm.Mem.ReadUint(0x100, 8); v != gabi.HCEInval {
		t.Fatalf("unmap of the alias returned %#x, want HCEInval", v)
	}
	if vm.Stats.ParaMaps != 1 {
		t.Fatalf("ParaMaps = %d, want 1 (the map only)", vm.Stats.ParaMaps)
	}
	wr, werr := mmu.Walk(vm.Mem, vm.tb.RootPPN, ChurnWindowVA)
	if werr != nil || wr.GPA != pa {
		t.Fatalf("mapping of %#x lost: gpa %#x, %v", ChurnWindowVA, wr.GPA, werr)
	}
	// The warm TLB entry still agrees with the tables.
	walks := vm.MMUCtx.Stats.Walks
	gpa, _, f := vm.MMUCtx.Translate(ChurnWindowVA, isa.AccRead, false)
	if f != nil || gpa != pa || vm.MMUCtx.Stats.Walks != walks {
		t.Fatalf("translate = %#x, %v after %d walks; want a TLB hit on %#x",
			gpa, f, vm.MMUCtx.Stats.Walks-walks, pa)
	}
	if v, _ := vm.Mem.ReadUint(pa, 8); v != 0x5a {
		t.Fatalf("page holds %#x, want the guest's 0x5a", v)
	}
}

func TestParaMapRejectedInOtherModes(t *testing.T) {
	vm := newTestVM(t, ModeHW)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA0, ChurnWindowVA)
		b.Li(isa.RegA1, 0x10000)
		b.Li(isa.RegA2, isa.PTERead)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	vm.RunToHalt(budget)
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != gabi.HCEInval {
		t.Fatalf("ret = %#x", v)
	}
}

func TestGuestAccessBeyondRAMFaults(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.Li(isa.RegT1, 0x3000_0000) // beyond RAM, below MMIO
		b.Load(isa.OpLD, isa.RegT2, isa.RegT1, 0)
		b.Halt(1)
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA0, isa.CSRScause)
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted || vm.HaltCode != 0 {
		t.Fatalf("state %v code %d", st, vm.HaltCode)
	}
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != isa.CauseLoadAccess {
		t.Fatalf("cause = %d", v)
	}
}

func TestBalloonReclaimAndReturn(t *testing.T) {
	vm := newTestVM(t, ModeHW)
	bal, _, err := vm.AttachVirtioBalloon()
	if err != nil {
		t.Fatal(err)
	}
	img := miniProgram(t, func(b *asm.Builder) {
		// Touch page 0x40 so it is resident, then spin on param 0.
		b.Li(isa.RegT0, 0x40000)
		b.Store(isa.OpSD, isa.RegT0, isa.RegT0, 0)
		b.Halt(0)
	})
	vm.Boot(img)
	vm.RunToHalt(budget)
	if vm.Mem.Frame(0x40) == mem.NoFrame {
		t.Fatal("page not resident")
	}
	// Host-side reclaim through the balloon ops (as the device would).
	ops := balloonOps{vm}
	ops.ReclaimPage(0x40)
	if vm.Mem.Frame(0x40) != mem.NoFrame {
		t.Fatal("reclaim did not unmap")
	}
	ops.ReturnPage(0x40)
	if vm.Mem.Frame(0x40) == mem.NoFrame {
		t.Fatal("return did not remap")
	}
	_ = bal
}

// TestBalloonRefusesVMMPages: a guest that inflates its balloon over pages
// the VMM holds — a ModePara page-table page (pinned and write-protected)
// and a kernel page (pinned) — gets neither. Both stay mapped and protected,
// and the balloon leases nothing. Reclaiming the table page used to clear
// its write protection, so the next demand fill handed the guest a writable
// table.
func TestBalloonRefusesVMMPages(t *testing.T) {
	vm := newTestVM(t, ModePara)
	bal, dev, err := vm.AttachVirtioBalloon()
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(miniProgram(t, func(b *asm.Builder) { b.Halt(0) })); err != nil {
		t.Fatal(err)
	}
	table, kernel := vm.tb.RootPPN, uint64(gabi.KernelBase>>isa.PageShift)
	if !vm.Mem.Pinned(table) || !vm.Mem.WriteProtected(table) || !vm.Mem.Pinned(kernel) {
		t.Fatal("boot did not protect the table and kernel pages")
	}
	heap := vm.Params[gabi.PHeapBase]
	for gfn := heap; gfn < heap+2; gfn++ { // the ring and the page array
		if err := vm.Mem.Populate(gfn); err != nil {
			t.Fatal(err)
		}
	}
	drv, buf, err := virtio.NewDriver(vm.Mem, dev, virtio.BalloonInflateQueue, heap<<isa.PageShift, 16)
	if err != nil {
		t.Fatal(err)
	}
	vm.Mem.WriteUintPriv(buf, 8, table)
	vm.Mem.WriteUintPriv(buf+8, 8, kernel)
	if _, err := drv.Submit([]virtio.DescBuf{{Addr: buf, Len: 16}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("inflate request never completed")
	}
	for _, gfn := range []uint64{table, kernel} {
		if vm.Mem.Frame(gfn) == mem.NoFrame || !vm.Mem.Pinned(gfn) {
			t.Errorf("gfn %#x reclaimed: mapped=%v pinned=%v", gfn, vm.Mem.Frame(gfn) != mem.NoFrame, vm.Mem.Pinned(gfn))
		}
	}
	if !vm.Mem.WriteProtected(table) {
		t.Error("table page lost its write protection")
	}
	if bal.Actual() != 0 || bal.Inflations != 0 {
		t.Errorf("actual = %d, inflations = %d, want 0/0", bal.Actual(), bal.Inflations)
	}
}

func TestReclaimHookRetriesAllocation(t *testing.T) {
	// Pool sized so the guest runs out; the hook frees one page each time.
	pool := mem.NewPool(40)
	vm, err := NewVM(pool, Config{Name: "oc", Mode: ModeHW, MemBytes: tRAM})
	if err != nil {
		t.Fatal(err)
	}
	var reclaims int
	vm.ReclaimHook = func() bool {
		// Evict the lowest present heap page.
		for gfn := uint64(0x20); gfn < vm.Mem.Pages(); gfn++ {
			if vm.Mem.Frame(gfn) != mem.NoFrame && !vm.Mem.WriteProtected(gfn) {
				vm.Mem.Unmap(gfn)
				reclaims++
				return true
			}
		}
		return false
	}
	img := miniProgram(t, func(b *asm.Builder) {
		// Touch 64 distinct pages at 0x40000.. — more than the pool allows.
		b.Li(isa.RegT0, 0x40000)
		b.Li(isa.RegT1, 64)
		b.Label("loop")
		b.Store(isa.OpSD, isa.RegT1, isa.RegT0, 0)
		b.Li(isa.RegT2, isa.PageSize)
		b.R(isa.OpADD, isa.RegT0, isa.RegT0, isa.RegT2)
		b.I(isa.OpADDI, isa.RegT1, isa.RegT1, -1)
		b.Branch(isa.OpBNE, isa.RegT1, isa.RegZero, "loop")
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	if reclaims == 0 {
		t.Fatal("hook never fired")
	}
}

// spinProgram counts iterations into params[PResult0] forever.
func spinProgram(t *testing.T) []byte {
	return miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegT0, 0)
		b.Label("loop")
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, 1)
		b.Li(isa.RegT1, gabi.ParamBase+gabi.PResult0*8)
		b.Store(isa.OpSD, isa.RegT0, isa.RegT1, 0)
		b.J("loop")
	})
}

// TestHostRunStopsWhenAllHalt: a single native VM that halts at once ends
// the run on a 1-PCPU round-robin host.
func TestHostRunStopsWhenAllHalt(t *testing.T) {
	h := NewHost(tPool, 1, sched.NewRoundRobin(DefaultQuantum))
	img := miniProgram(t, func(b *asm.Builder) { b.Halt(0) })
	vm, _ := h.CreateVM(Config{Name: "vm", Mode: ModeNative, MemBytes: tRAM})
	vm.Boot(img)
	h.AddToScheduler(0, 1, 0)
	h.RunParallel(1, 1_000_000_000)
	if !h.AllHalted() {
		t.Fatalf("vm state %v", vm.State)
	}
	if !strings.Contains(h.String(), "vms=1") {
		t.Fatal("host String")
	}
}

// TestHostWeightedShares: the credit scheduler splits one PCPU 4:1 between
// a 512- and a 128-weight VM.
func TestHostWeightedShares(t *testing.T) {
	cs := sched.NewCredit()
	h := NewHost(tPool, 1, cs)
	img := spinProgram(t)
	for i := 0; i < 2; i++ {
		vm, _ := h.CreateVM(Config{Name: "vm", Mode: ModeHW, MemBytes: tRAM})
		vm.Boot(img)
	}
	h.AddToScheduler(0, 512, 0) // 4x weight
	h.AddToScheduler(1, 128, 0)
	h.RunParallel(1, 120_000_000)
	c0 := h.VMs[0].Result(gabi.PResult0)
	c1 := h.VMs[1].Result(gabi.PResult0)
	ratio := float64(c0) / float64(c1)
	if ratio < 3.0 || ratio > 5.0 {
		t.Fatalf("weight 4:1 gave %.2f (%d vs %d)", ratio, c0, c1)
	}
}

func TestModeAndStateStrings(t *testing.T) {
	for _, m := range []Mode{ModeNative, ModeTrap, ModePara, ModeHW} {
		if m.String() == "mode?" {
			t.Fatal("mode string")
		}
	}
	for _, s := range []State{StateCreated, StateRunning, StateIdle, StatePaused, StateHalted, StateError} {
		if s.String() == "state?" {
			t.Fatal("state string")
		}
	}
}
