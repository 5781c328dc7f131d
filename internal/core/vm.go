// Package core implements the govisor virtual machine monitor: VM lifecycle,
// the VM-exit dispatch loop, privileged-instruction emulation, the hypercall
// interface, virtual interrupt injection, and the wiring between vCPUs,
// guest memory, the MMU engines and the device models.
//
// One VMM supports four execution modes over the same guest binary:
//
//	ModeNative — the baseline: the "hardware" runs the guest fully
//	             privileged with direct 1-D paging. No VMM exits except
//	             firmware calls (the hypercall ABI doubles as SBI).
//	ModeTrap   — classic trap-and-emulate with shadow paging: the guest is
//	             deprivileged, every privileged op exits and is emulated,
//	             translations come from VMM-maintained shadow tables kept
//	             coherent by write-protecting guest page-table pages.
//	ModePara   — paravirtual: the guest is deprivileged but cooperates,
//	             replacing page-table writes with (batchable) hypercalls
//	             against VMM-validated direct-mapped tables.
//	ModeHW     — simulated hardware assist: the guest runs privileged
//	             against its own CSR file; translation pays the
//	             two-dimensional nested-walk cost; exits happen only for
//	             hypercalls, MMIO, and host-level page faults.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"govisor/internal/dev"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
	"govisor/internal/storage"
	"govisor/internal/vcpu"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// Mode selects the virtualization style of a VM.
type Mode uint8

// Virtualization modes.
const (
	ModeNative Mode = iota
	ModeTrap
	ModePara
	ModeHW
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeTrap:
		return "trap"
	case ModePara:
		return "para"
	case ModeHW:
		return "hw"
	}
	return "mode?"
}

// Venv returns the CSRVenv discovery value for the mode.
func (m Mode) Venv() uint64 {
	switch m {
	case ModeTrap:
		return isa.VEnvTrap
	case ModePara:
		return isa.VEnvPara
	case ModeHW:
		return isa.VEnvHW
	default:
		return isa.VEnvNative
	}
}

// State is the lifecycle state of a VM.
type State uint8

// VM states.
const (
	StateCreated State = iota
	StateRunning
	StateIdle   // WFI with no pending interrupt; wakes on IRQ or timer
	StatePaused // explicitly paused (migration brown-out)
	StateHalted
	StateError
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateIdle:
		return "idle"
	case StatePaused:
		return "paused"
	case StateHalted:
		return "halted"
	case StateError:
		return "error"
	}
	return "state?"
}

// Config describes a VM to create.
type Config struct {
	Name     string
	Mode     Mode
	MemBytes uint64
	// EagerMem pre-populates all of guest RAM at boot; otherwise pages are
	// demand-allocated on first touch.
	EagerMem bool
	// Costs overrides the cycle cost model (zero value ⇒ defaults).
	Costs *vcpu.Costs
	// NoASID disables TLB ASID tagging, so every address-space switch
	// flushes the TLB (ablation A2). Tagging is on by default.
	NoASID bool
	// Reference runs the VM on the reference engine: the per-instruction
	// interpreter that is the executable semantics of GV64 (vcpu/ref.go).
	// It is the oracle the differential suites hold the default fast
	// engine to — every guest-visible byte, simulated cycle and statistic
	// must match — and nothing else sets it.
	Reference bool
}

// Marker is a benchmark region marker recorded by the HCMarker hypercall.
type Marker struct {
	ID     uint64
	Cycles uint64
}

// VMStats aggregates VMM-side counters for one VM.
type VMStats struct {
	Hypercalls   uint64
	ParaMaps     uint64 // MMU map/unmap operations validated
	ParaBatches  uint64
	Injections   uint64 // virtual traps/interrupts injected
	PTWriteEmuls uint64 // trapped guest page-table writes emulated
	ShadowFills  uint64
	DemandFills  uint64
	RemoteFills  uint64 // post-copy pages pulled from a migration source
	MMIOExits    uint64
}

// VM is one guest virtual machine.
type VM struct {
	Name string
	Mode Mode

	Mem    *mem.GuestPhys
	CPU    *vcpu.CPU
	MMUCtx *mmu.Context
	Bus    *dev.Bus
	IntCtl *dev.IntController
	UART   *dev.UART

	State    State
	HaltCode uint16
	Err      error

	Params  [gabi.ParamSlots]uint64
	Markers []Marker

	// PageSource, when set, resolves not-present pages from a remote host
	// (post-copy live migration). It returns the page content and true, or
	// false to fall back to demand-zero allocation. The returned slice is
	// only read, and only until the hook is called again: it may alias the
	// migration wire's receive buffer, so handleHostFault copies it into
	// guest RAM at once.
	PageSource func(gfn uint64) ([]byte, bool)

	// ReclaimHook, when set, is invoked when the host pool is exhausted;
	// returning true means "retry the allocation" (the overcommit policy
	// freed something). Used by the ballooning experiments. Under
	// Host.RunParallel the hook runs on this VM's worker mid-epoch, so it
	// must not touch other VMs' state — drive cross-VM reclaim from
	// Host.EpochFunc instead (see the RunParallel contract).
	ReclaimHook func() bool

	Stats VMStats

	// Paravirtual / prebuilt paging state.
	tb         *mmu.TableBuilder
	ptPages    map[uint64]bool // pinned table pages (para)
	virtioSlot int
	costs      vcpu.Costs

	// netPorts are the virtual-switch attachments of this VM's NICs; the
	// parallel engine defers their switches at run start so inter-VM frames
	// deliver at epoch barriers instead of racing across workers.
	netPorts []*vnet.Port
}

// ChurnWindowVA is the virtual base of the PT-churn window handed to guest
// kernels (well above RAM, below the MMIO window).
const ChurnWindowVA = 0x2000_0000

// ChurnWindowPages is how many leaf PTEs the churn window spans.
const ChurnWindowPages = 256

// ptRegionPages is the number of top-of-RAM pages reserved for the
// VMM-built boot page tables.
const ptRegionPages = 64

// NewVM creates a VM over the host pool.
func NewVM(pool *mem.Pool, cfg Config) (*VM, error) {
	if cfg.MemBytes < 32*isa.PageSize {
		return nil, fmt.Errorf("core: %s: at least 32 pages of RAM required", cfg.Name)
	}
	g := mem.NewGuestPhys(pool, cfg.MemBytes)

	var style mmu.Style
	depriv := false
	switch cfg.Mode {
	case ModeNative:
		style = mmu.StyleDirect
	case ModeTrap:
		style = mmu.StyleShadow
		depriv = true
	case ModePara:
		style = mmu.StyleDirect
		depriv = true
	case ModeHW:
		style = mmu.StyleNested
	default:
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	ctx := mmu.NewContext(g, style)
	ctx.UseASID = !cfg.NoASID

	var cpu *vcpu.CPU
	if cfg.Reference {
		cpu = vcpu.NewReference(g, ctx)
	} else {
		cpu = vcpu.New(g, ctx)
	}
	cpu.Deprivileged = depriv
	cpu.Venv = cfg.Mode.Venv()
	if cfg.Costs != nil {
		cpu.Costs = *cfg.Costs
	}

	vm := &VM{
		Name:    cfg.Name,
		Mode:    cfg.Mode,
		Mem:     g,
		CPU:     cpu,
		MMUCtx:  ctx,
		Bus:     dev.NewBus(),
		IntCtl:  dev.NewIntController(),
		State:   StateCreated,
		ptPages: make(map[uint64]bool),
		costs:   cpu.Costs,
	}
	cpu.IsMMIO = vm.Bus.IsMMIO
	vm.IntCtl.SetPin = func(asserted bool) {
		if asserted {
			cpu.RaiseIRQ(isa.IntExt)
			if vm.State == StateIdle {
				vm.State = StateRunning
			}
		} else {
			cpu.ClearIRQ(isa.IntExt)
		}
	}
	if err := vm.Bus.Attach(dev.IntCtlBase, dev.IntCtlSize, vm.IntCtl); err != nil {
		return nil, err
	}
	vm.UART = dev.NewUART(vm.IntCtl)
	if err := vm.Bus.Attach(dev.UARTBase, dev.UARTSize, vm.UART); err != nil {
		return nil, err
	}
	if cfg.EagerMem {
		if err := g.PopulateAll(); err != nil {
			return nil, fmt.Errorf("core: %s: populating %d bytes: %w", cfg.Name, cfg.MemBytes, err)
		}
	}
	return vm, nil
}

// AttachPIODisk wires the programmed-I/O baseline disk.
func (vm *VM) AttachPIODisk(img storage.Image) (*dev.PIODisk, error) {
	d := dev.NewPIODisk(img, vm.IntCtl)
	if err := vm.Bus.Attach(dev.PIODiskBase, dev.PIODiskSize, d); err != nil {
		return nil, err
	}
	return d, nil
}

// AttachRegNIC wires the register-banged baseline NIC to a switch port.
func (vm *VM) AttachRegNIC(port *vnet.Port) (*dev.RegNIC, error) {
	n := dev.NewRegNIC(port, vm.IntCtl)
	if err := vm.Bus.Attach(dev.RegNICBase, dev.RegNICSize, n); err != nil {
		return nil, err
	}
	port.SetClock(func() uint64 { return vm.CPU.Cycles })
	vm.netPorts = append(vm.netPorts, port)
	return n, nil
}

// attachVirtio places a virtio backend in the next free slot.
func (vm *VM) attachVirtio(name string, backend virtio.Backend) (*virtio.MMIODev, error) {
	if vm.virtioSlot >= dev.VirtioSlots {
		return nil, fmt.Errorf("core: %s: out of virtio slots", vm.Name)
	}
	slot := vm.virtioSlot
	vm.virtioSlot++
	irq := uint(dev.IRQVirtio0 + slot)
	d := virtio.NewMMIODev(name, backend, vm.Mem, func() { vm.IntCtl.Raise(irq) })
	base := uint64(dev.VirtioBase + slot*dev.VirtioStride)
	if err := vm.Bus.Attach(base, dev.VirtioStride, d); err != nil {
		return nil, err
	}
	return d, nil
}

// AttachVirtioBlk wires a virtio-blk device over img.
func (vm *VM) AttachVirtioBlk(img storage.Image) (*virtio.Blk, *virtio.MMIODev, error) {
	blk := virtio.NewBlk(img)
	d, err := vm.attachVirtio("virtio-blk", blk)
	if err != nil {
		return nil, nil, err
	}
	blk.Bind(d)
	return blk, d, nil
}

// AttachVirtioNet wires a virtio-net device to a switch port.
func (vm *VM) AttachVirtioNet(port *vnet.Port) (*virtio.Net, *virtio.MMIODev, error) {
	n := virtio.NewNet(port)
	d, err := vm.attachVirtio("virtio-net", n)
	if err != nil {
		return nil, nil, err
	}
	n.Bind(d)
	// Frames this VM defers at a switch carry its simulated send time, so
	// epoch-barrier flushes deliver in guest-time order regardless of which
	// worker ran which VM (see vnet.Switch.Flush).
	port.SetClock(func() uint64 { return vm.CPU.Cycles })
	vm.netPorts = append(vm.netPorts, port)
	return n, d, nil
}

// AttachVirtioConsole wires a virtio console.
func (vm *VM) AttachVirtioConsole() (*virtio.Console, *virtio.MMIODev, error) {
	c := virtio.NewConsole()
	d, err := vm.attachVirtio("virtio-console", c)
	if err != nil {
		return nil, nil, err
	}
	c.Bind(d)
	return c, d, nil
}

// balloonOps adapts the VM's memory to the virtio-balloon device.
type balloonOps struct{ vm *VM }

// ReclaimPage refuses gfns beyond RAM and pages the VMM holds, pinned or
// write-protected: unmapping a guarded table page would clear its protection.
func (b balloonOps) ReclaimPage(gfn uint64) bool {
	m := b.vm.Mem
	if gfn >= m.Pages() || m.Pinned(gfn) || m.WriteProtected(gfn) {
		return false
	}
	m.Unmap(gfn)
	return true
}

func (b balloonOps) ReturnPage(gfn uint64) { _ = b.vm.Mem.Populate(gfn) }

// AttachVirtioBalloon wires a balloon device driving this VM's memory.
func (vm *VM) AttachVirtioBalloon() (*virtio.Balloon, *virtio.MMIODev, error) {
	bal := virtio.NewBalloon(balloonOps{vm})
	d, err := vm.attachVirtio("virtio-balloon", bal)
	if err != nil {
		return nil, nil, err
	}
	bal.Bind(d)
	return bal, d, nil
}

// Boot loads the kernel image, builds the boot page tables, writes the
// parameter block, and arms the vCPU at the kernel entry point.
//
// The VMM plays bootloader: identity page tables covering guest RAM (2 MiB
// superpages where possible), the MMIO window, and the PT-churn window are
// built in a reserved region at the top of RAM; their SATP value is passed
// to the kernel through the parameter block. Under ModePara the table pages
// are pinned (write-protected) and may only change via MMU hypercalls.
func (vm *VM) Boot(kernel []byte) error {
	if vm.State != StateCreated {
		return fmt.Errorf("core: %s: boot in state %v", vm.Name, vm.State)
	}
	// RAM from the bottom: parameter block, kernel image, boot stack, heap;
	// the boot page tables take the top ptRegionPages. The heap starts
	// above the image and the stack page, so a heap of zero or more pages
	// keeps the tables clear of everything the guest boots from.
	np := vm.Mem.Pages()
	heapBase := (gabi.KernelBase + isa.PageRoundUp(uint64(len(kernel))) + 16*isa.PageSize) >> isa.PageShift
	if np < heapBase+ptRegionPages {
		return fmt.Errorf("core: %s: kernel of %d bytes does not fit in %d pages of RAM", vm.Name, len(kernel), np)
	}
	// Ensure the pages backing kernel, params and stack exist.
	for gfn := uint64(0); gfn <= (gabi.KernelBase+uint64(len(kernel)))>>isa.PageShift; gfn++ {
		if err := vm.Mem.Populate(gfn); err != nil {
			return err
		}
	}
	if f := vm.Mem.Write(gabi.KernelBase, kernel); f != nil {
		return fmt.Errorf("core: %s: loading kernel: %w", vm.Name, f)
	}

	// Boot page tables at the top of RAM.
	tableStart := np - ptRegionPages
	tb, err := mmu.NewTableBuilder(vm.Mem, tableStart, ptRegionPages)
	if err != nil {
		return err
	}
	ramFlags := isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEGlobal
	if err := tb.IdentityMap(np<<isa.PageShift, ramFlags); err != nil {
		return err
	}
	// MMIO window: 2 MiB superpages covering all device slots.
	mmioFlags := isa.PTERead | isa.PTEWrite | isa.PTEGlobal
	for off := uint64(0); off < 16*isa.MegaPageSize; off += isa.MegaPageSize {
		if err := tb.MapSuper(dev.MMIOBase+off, dev.MMIOBase+off, mmioFlags); err != nil {
			return err
		}
	}
	// Churn window: allocate the L0 table and expose the PTE slots.
	l0, err := tb.EnsureL0(ChurnWindowVA)
	if err != nil {
		return err
	}
	vm.tb = tb
	// Pin what must never be reclaimed: the page-table region (the walker
	// faults recursively if it vanishes), the kernel image, and the
	// parameter/stack pages.
	for gfn := tableStart; gfn < np; gfn++ {
		vm.Mem.Pin(gfn)
	}
	for gfn := uint64(0); gfn <= (gabi.KernelBase+uint64(len(kernel)))>>isa.PageShift; gfn++ {
		vm.Mem.Pin(gfn)
	}
	vm.Mem.Pin((gabi.StackTop - 1) >> isa.PageShift)
	if vm.Mode == ModePara {
		for _, ppn := range tb.TablePPNs() {
			vm.Mem.WriteProtect(ppn, true)
			vm.ptPages[ppn] = true
		}
	}

	satp := isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN)
	vm.Params[gabi.PHeapBase] = heapBase
	vm.Params[gabi.PHeapPages] = tableStart - heapBase
	vm.Params[gabi.PSatp] = satp
	vm.Params[gabi.PChurnVA] = ChurnWindowVA
	vm.Params[gabi.PChurnPTE] = l0<<isa.PageShift + isa.VPN(ChurnWindowVA, 0)*8
	vm.Params[gabi.PChurnPages] = ChurnWindowPages
	for i, v := range vm.Params {
		if f := vm.Mem.WriteUintPriv(gabi.ParamBase+uint64(i)*8, 8, v); f != nil {
			return fmt.Errorf("core: %s: writing params: %w", vm.Name, f)
		}
	}

	cpu := vm.CPU
	cpu.PC = gabi.KernelBase
	cpu.Priv = vcpu.PrivS
	cpu.SetReg(isa.RegA0, gabi.ParamBase)
	cpu.SetReg(isa.RegSP, gabi.StackTop)
	vm.State = StateRunning
	// Boot-time dirtying is not workload dirtying.
	vm.Mem.CollectDirty(nil)
	return nil
}

// SetParam stores a boot parameter; must be called before Boot.
func (vm *VM) SetParam(slot int, v uint64) { vm.Params[slot] = v }

// Result reads a result slot from the parameter block after the guest halts.
func (vm *VM) Result(slot int) uint64 {
	v, _ := vm.Mem.ReadUint(gabi.ParamBase+uint64(slot)*8, 8)
	return v
}

// Output returns the UART console output.
func (vm *VM) Output() string { return vm.UART.Output() }

// Pause stops the VM at the next exit boundary (migration brown-out).
func (vm *VM) Pause() {
	if vm.State == StateRunning || vm.State == StateIdle {
		vm.State = StatePaused
	}
}

// Resume restarts a paused VM.
func (vm *VM) Resume() {
	if vm.State == StatePaused {
		vm.State = StateRunning
	}
}

// ArchState is the portable architectural state of a VM: the vCPU's
// registers, counters and CSRs, the parameter block and the halt code.
// CaptureArch and RestoreArch are its one field list out of and into a VM,
// and Append/DecodeArchState its one encoding, shared by the snapshot
// format and the migration arch frame. The migration engine also keeps one
// at Pause so an aborted migration can roll the source back bit-for-bit.
type ArchState struct {
	X        [32]uint64
	PC       uint64
	Priv     uint8
	Cycles   uint64
	Instret  uint64
	CSR      vcpu.CSRFile
	Params   [gabi.ParamSlots]uint64
	HaltCode uint16
}

// ArchStateSize is the length of an encoded ArchState: 95 little-endian u64
// words — 32 GPRs, PC, privilege, cycles, instret, the 10 CSRs in CSRFile
// order, the parameter slots and the halt code.
const ArchStateSize = (32 + 4 + 10 + gabi.ParamSlots + 1) * 8

// words calls f on every encoded word of a in wire order, with the largest
// value DecodeArchState accepts for it. Priv and HaltCode travel widened to
// u64 and are narrowed back after f.
func (a *ArchState) words(f func(w *uint64, max uint64)) {
	const anyWord = ^uint64(0)
	priv, halt := uint64(a.Priv), uint64(a.HaltCode)
	c := &a.CSR
	for i := range a.X {
		f(&a.X[i], anyWord)
	}
	f(&a.PC, anyWord)
	f(&priv, uint64(vcpu.PrivS))
	for _, w := range [...]*uint64{&a.Cycles, &a.Instret, &c.Sstatus, &c.Sie, &c.Stvec,
		&c.Sscratch, &c.Sepc, &c.Scause, &c.Stval, &c.Sip, &c.Stimecmp, &c.Satp} {
		f(w, anyWord)
	}
	for i := range a.Params {
		f(&a.Params[i], anyWord)
	}
	f(&halt, 0xFFFF)
	a.Priv, a.HaltCode = uint8(priv), uint16(halt)
}

// Append appends the ArchStateSize-byte encoding of a to b.
func (a ArchState) Append(b []byte) []byte {
	a.words(func(w *uint64, _ uint64) { b = binary.LittleEndian.AppendUint64(b, *w) })
	return b
}

// DecodeArchState parses an encoded ArchState. It accepts exactly
// ArchStateSize bytes whose privilege is PrivU or PrivS and whose halt code
// fits 16 bits, so every state it accepts encodes back to the same bytes.
func DecodeArchState(p []byte) (ArchState, error) {
	var a ArchState
	if len(p) != ArchStateSize {
		return a, fmt.Errorf("core: arch state is %d bytes, want %d", len(p), ArchStateSize)
	}
	var err error
	i := 0
	a.words(func(w *uint64, max uint64) {
		*w = binary.LittleEndian.Uint64(p[i*8:])
		if *w > max && err == nil {
			err = fmt.Errorf("core: arch state word %d = %#x, above its limit %#x", i, *w, max)
		}
		i++
	})
	if err != nil {
		return ArchState{}, err
	}
	return a, nil
}

// CaptureArch snapshots the VM's architectural state.
func (vm *VM) CaptureArch() ArchState {
	c := vm.CPU
	return ArchState{
		X:        c.X,
		PC:       c.PC,
		Priv:     c.Priv,
		Cycles:   c.Cycles,
		Instret:  c.Instret,
		CSR:      c.CSR,
		Params:   vm.Params,
		HaltCode: vm.HaltCode,
	}
}

// RestoreArch installs a as a raw field restore, with no MMU re-arm and no
// state change. On its own it is the migration-abort path, rolling the VM
// back to a checkpoint taken on it while paused: nothing has executed since
// (the brown-out only read memory and advanced the clock), so the MMU state
// on record is still valid and must not be perturbed, and the caller
// Resumes the VM. AdoptArch builds on it for state from another VM.
func (vm *VM) RestoreArch(a ArchState) {
	c := vm.CPU
	c.X = a.X
	c.PC = a.PC
	c.Priv = a.Priv
	c.Cycles = a.Cycles
	c.Instret = a.Instret
	c.CSR = a.CSR
	vm.Params = a.Params
	vm.HaltCode = a.HaltCode
}

// AdoptArch installs state captured on another VM — the switchover of a
// migration, a clone or a snapshot restore, into a VM that passed
// CheckReceiver. It is RestoreArch plus what a VM that never ran this
// state needs: SATP goes through WriteCSR to re-arm this VM's own MMU
// (shadow spaces rebuild on demand), and the VM comes up running. Memory
// content travels separately.
func (vm *VM) AdoptArch(a ArchState) {
	vm.RestoreArch(a)
	vm.CPU.WriteCSR(isa.CSRSatp, a.CSR.Satp)
	vm.State = StateRunning
}

// ErrParaState refuses ModePara state to every receiver. A para VM's table
// builder, pinned table pages and their write-protect bits are VMM state
// that no encoding carries, so a receiver would run the guest against
// tables its VMM does not know (the guest's next MMU hypercall fails).
var ErrParaState = errors.New("core: ModePara state does not move: its VMM-side page-table state has no encoding")

// CheckReceiver is the one rule for who may receive a VM's state (a
// migration, a clone or a snapshot restore): a freshly created VM of the
// sender's mode, not ModePara, with at least pages pages of RAM. src is the
// sending VM, or nil for a snapshot stream; when set it must be another VM
// over another guest-physical space, since self-transfer silently corrupts
// state.
func (vm *VM) CheckReceiver(src *VM, mode Mode, pages uint64) error {
	switch {
	case src == vm:
		return errors.New("core: source and destination are the same VM")
	case src != nil && src.Mem == vm.Mem:
		return errors.New("core: source and destination share a guest-physical space")
	case vm.State != StateCreated:
		return fmt.Errorf("core: destination is %v, want freshly created", vm.State)
	case mode != vm.Mode:
		return fmt.Errorf("core: source mode %v, destination mode %v", mode, vm.Mode)
	case mode == ModePara:
		return ErrParaState
	case vm.Mem.Pages() < pages:
		return fmt.Errorf("core: destination has %d pages of RAM, source %d", vm.Mem.Pages(), pages)
	}
	return nil
}

// FailRemote transitions the VM to StateError with err — used by
// post-copy PageSource hooks when a remote pull fails unrecoverably, so
// the guest halts with a visible error instead of silently executing
// demand-zero garbage.
func (vm *VM) FailRemote(err error) { vm.fail(err) }

// Release returns all resources to the host pool (teardown).
func (vm *VM) Release() {
	if vm.MMUCtx.Shadow != nil {
		vm.MMUCtx.Shadow.DropAll()
	}
	vm.Mem.Release()
	vm.State = StateHalted
}
