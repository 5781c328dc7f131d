package core

import (
	"fmt"

	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
	"govisor/internal/vcpu"
)

// Step runs the VM for up to budget guest cycles, dispatching VM exits.
// It returns the number of cycles actually consumed (including VMM work
// charged to the guest clock).
//
//govisor:worker
func (vm *VM) Step(budget uint64) uint64 {
	cpu := vm.CPU
	start := cpu.Cycles
	deadline := start + budget
	for vm.State == StateRunning && cpu.Cycles < deadline {
		vm.handleExit(cpu.Run(deadline - cpu.Cycles))
	}
	return cpu.Cycles - start
}

// RunToHalt drives a single VM to completion, fast-forwarding idle periods
// to the next timer deadline. It stops after maxCycles of guest time as a
// runaway guard and returns the final state.
func (vm *VM) RunToHalt(maxCycles uint64) State {
	cpu := vm.CPU
	limit := cpu.Cycles + maxCycles
	for cpu.Cycles < limit {
		switch vm.State {
		case StateRunning:
			vm.Step(limit - cpu.Cycles)
		case StateIdle:
			// Only a timer can wake an idle VM with nobody else running.
			if cmp := cpu.CSR.Stimecmp; cmp != 0 {
				if cmp > cpu.Cycles {
					cpu.Cycles = cmp
				}
				vm.State = StateRunning
				continue
			}
			return vm.State
		default:
			return vm.State
		}
	}
	return vm.State
}

func (vm *VM) fail(err error) {
	vm.State = StateError
	if vm.Err == nil {
		vm.Err = err
	}
}

// handleExit dispatches the exit Run returned, reading its detail from the
// CPU's exit record in place.
func (vm *VM) handleExit(r vcpu.ExitReason) {
	cpu := vm.CPU
	ex := &cpu.Exit
	switch r {
	case vcpu.ExitQuantum:
		// Budget exhausted; Step's loop condition stops.

	case vcpu.ExitHalt:
		vm.HaltCode = ex.Code
		vm.State = StateHalted

	case vcpu.ExitEcall:
		if ex.From == vcpu.PrivU {
			// Deprivileged guest's user code made a syscall: reflect it into
			// the guest kernel (the expensive trap-and-emulate syscall path).
			cpu.InjectTrap(isa.CauseEcallU, 0)
			cpu.AddCycles(vm.costs.Inject)
			vm.Stats.Injections++
			return
		}
		vm.hypercall()

	case vcpu.ExitPriv:
		cpu.AddCycles(vm.costs.Emulate)
		if err := cpu.EmulatePrivileged(ex.Inst); err != nil {
			// Architecturally this is an illegal instruction in the guest.
			cpu.InjectTrap(isa.CauseIllegal, 0)
			cpu.AddCycles(vm.costs.Inject)
			vm.Stats.Injections++
		}

	case vcpu.ExitGuestTrap:
		cpu.InjectTrap(ex.Cause, ex.Tval)
		cpu.AddCycles(vm.costs.Inject)
		vm.Stats.Injections++

	case vcpu.ExitIntrWindow:
		irq := cpu.PendingInterrupt()
		if irq == 0 {
			return // raced with the guest masking interrupts; just resume
		}
		cpu.InjectTrap(isa.CauseInterrupt|irq, 0)
		cpu.AddCycles(vm.costs.Inject)
		vm.Stats.Injections++

	case vcpu.ExitWFI:
		// Stay runnable if anything is already pending; otherwise idle.
		if cpu.CSR.Sip&cpu.CSR.Sie == 0 {
			vm.State = StateIdle
		}

	case vcpu.ExitMMIO:
		vm.Stats.MMIOExits++
		if ex.MMIO.Write {
			vm.Bus.Write(ex.MMIO.GPA, int(ex.MMIO.Size), ex.MMIO.Value)
		} else {
			v := vm.Bus.Read(ex.MMIO.GPA, int(ex.MMIO.Size))
			cpu.FinishMMIORead(ex.MMIO, v)
		}

	case vcpu.ExitShadowMiss:
		vm.handleShadowMiss(ex.VA, ex.Access)

	case vcpu.ExitHostFault:
		vm.handleHostFault(ex.VA, &ex.Mem)

	default:
		vm.fail(fmt.Errorf("core: %s: unhandled exit %v", vm.Name, ex))
	}
}

// handleShadowMiss fills the shadow entry for an access of kind acc to va.
func (vm *VM) handleShadowMiss(va uint64, acc isa.Access) {
	cpu := vm.CPU
	sh := vm.MMUCtx.Shadow
	if sh == nil {
		vm.fail(fmt.Errorf("core: %s: shadow miss without shadow engine", vm.Name))
		return
	}
	root := isa.SatpPPN(cpu.CSR.Satp)
	refs, fault := sh.Fill(root, va, acc, cpu.Priv == vcpu.PrivU)
	cpu.AddCycles(uint64(refs)*vm.costs.PTRef + vm.costs.Emulate)
	vm.Stats.ShadowFills++
	if fault == nil {
		return // resume; the retry hits the freshly filled shadow entry
	}
	switch fault.Kind {
	case mmu.FaultGuest:
		cpu.InjectTrap(fault.Cause, va)
		cpu.AddCycles(vm.costs.Inject)
		vm.Stats.Injections++
	case mmu.FaultHost:
		vm.handleHostFault(va, fault.Mem)
	default:
		vm.fail(fmt.Errorf("core: %s: shadow fill returned %v", vm.Name, fault))
	}
}

// handleHostFault resolves the guest-physical fault f that an access to va
// raised: from the exit record, or from a shadow fill's walk.
func (vm *VM) handleHostFault(va uint64, f *mem.Fault) {
	cpu := vm.CPU
	gfn := f.GPA >> isa.PageShift
	switch f.Kind {
	case mem.FaultNotPresent:
		// Post-copy migration pulls the page from the source first.
		if vm.PageSource != nil {
			if page, ok := vm.PageSource(gfn); ok {
				if err := vm.ensureFrame(gfn); err != nil {
					vm.fail(err)
					return
				}
				if err := vm.Mem.WriteRaw(gfn, page); err != nil {
					vm.fail(err)
					return
				}
				vm.Stats.RemoteFills++
				return
			}
		}
		if err := vm.ensureFrame(gfn); err != nil {
			vm.fail(err)
			return
		}
		if err := vm.Mem.Populate(gfn); err != nil {
			vm.fail(fmt.Errorf("core: %s: demand fill gfn %d: %w", vm.Name, gfn, err))
			return
		}
		cpu.AddCycles(vm.costs.DemandFill)
		vm.Stats.DemandFills++

	case mem.FaultWriteProt:
		switch {
		case vm.Mode == ModeTrap && vm.MMUCtx.Shadow != nil && vm.MMUCtx.Shadow.IsPTPage(gfn):
			vm.emulatePTWrite(f.GPA, gfn)
		case vm.Mode == ModePara && vm.ptPages[gfn]:
			// A paravirtual guest must not write pinned tables directly.
			cpu.InjectTrap(isa.CauseStorePageFault, va)
			cpu.AddCycles(vm.costs.Inject)
			vm.Stats.Injections++
		default:
			vm.fail(fmt.Errorf("core: %s: unexpected write-protect fault at gpa %#x", vm.Name, f.GPA))
		}

	case mem.FaultBeyondRAM:
		cpu.InjectTrap(isa.AccessFaultCause(f.Access), va)
		cpu.AddCycles(vm.costs.Inject)
		vm.Stats.Injections++

	default:
		vm.fail(fmt.Errorf("core: %s: unhandled host fault %v", vm.Name, f))
	}
}

// ensureFrame retries pool pressure through the overcommit hook.
func (vm *VM) ensureFrame(gfn uint64) error {
	if vm.Mem.Pool().Free() > 0 {
		return nil
	}
	if vm.ReclaimHook != nil && vm.ReclaimHook() {
		return nil
	}
	return fmt.Errorf("core: %s: host memory exhausted at gfn %d", vm.Name, gfn)
}

// emulatePTWrite handles a trapped guest store to a shadow-tracked page-
// table page: decode the faulting store, perform it on the guest's behalf,
// and invalidate every shadow entry derived through the page.
func (vm *VM) emulatePTWrite(gpa, gfn uint64) {
	cpu := vm.CPU
	in, err := vm.fetchCurrent()
	if err != nil {
		vm.fail(fmt.Errorf("core: %s: decoding PT write: %w", vm.Name, err))
		return
	}
	var size int
	switch in.Op {
	case isa.OpSB:
		size = 1
	case isa.OpSH:
		size = 2
	case isa.OpSW:
		size = 4
	case isa.OpSD:
		size = 8
	default:
		vm.fail(fmt.Errorf("core: %s: WP fault from non-store %s", vm.Name, isa.Disasm(in)))
		return
	}
	val := cpu.Reg(in.Rs2)
	if f := vm.Mem.WriteUintPriv(gpa, size, val); f != nil {
		vm.fail(fmt.Errorf("core: %s: emulating PT write: %w", vm.Name, f))
		return
	}
	for _, vpn := range vm.MMUCtx.Shadow.InvalidatePTWrite(gfn) {
		vm.MMUCtx.TLB.FlushPageAllASIDs(vpn << isa.PageShift)
	}
	cpu.SkipInstr()
	cpu.AddCycles(vm.costs.Emulate)
	vm.Stats.PTWriteEmuls++
}

// fetchCurrent reads and decodes the instruction at the guest PC (the VMM's
// software instruction decoder for emulation paths).
func (vm *VM) fetchCurrent() (isa.Inst, error) {
	cpu := vm.CPU
	gpa, refs, fault := vm.MMUCtx.Translate(cpu.PC, isa.AccExec, cpu.Priv == vcpu.PrivU)
	cpu.AddCycles(uint64(refs) * vm.costs.PTRef)
	if fault != nil {
		if fault.Kind == mmu.FaultShadowMiss && vm.MMUCtx.Shadow != nil {
			root := isa.SatpPPN(cpu.CSR.Satp)
			if _, fault = vm.MMUCtx.Shadow.Fill(root, cpu.PC, isa.AccExec, cpu.Priv == vcpu.PrivU); fault == nil {
				gpa, _, fault = vm.MMUCtx.Translate(cpu.PC, isa.AccExec, cpu.Priv == vcpu.PrivU)
			}
		}
		if fault != nil {
			return isa.Inst{}, fault
		}
	}
	w, f := vm.Mem.ReadUint(gpa, 4)
	if f != nil {
		return isa.Inst{}, f
	}
	return isa.Decode(uint32(w)), nil
}

// hypercall dispatches an ECALL from virtual S-mode. Under the native
// baseline the same ABI acts as firmware (SBI) calls.
func (vm *VM) hypercall() {
	cpu := vm.CPU
	cpu.AddCycles(vm.costs.Hypercall)
	vm.Stats.Hypercalls++
	nr := cpu.Reg(isa.RegA7)
	a0 := cpu.Reg(isa.RegA0)
	a1 := cpu.Reg(isa.RegA1)
	a2 := cpu.Reg(isa.RegA2)

	ret := uint64(gabi.HCOK)
	switch nr {
	case gabi.HCPutchar:
		vm.UART.MMIOWrite(0 /* UARTTx */, 1, a0)

	case gabi.HCYield:
		// Cooperative yield: treated as an immediate quantum end by making
		// the vCPU idle-for-zero-time; the scheduler layer observes it via
		// the exit itself. Nothing to do in the single-VM path.

	case gabi.HCSetTimer:
		cpu.WriteCSR(isa.CSRStimecmp, a0)

	case gabi.HCMMUMap:
		ret = vm.paraMap(a0, a1, a2)

	case gabi.HCMMUBatch:
		ret = vm.paraBatch(a0, a1)

	case gabi.HCMMUUnmap:
		ret = vm.paraUnmap(a0)

	case gabi.HCFlushTLB:
		vm.MMUCtx.Flush(a0, 0)

	case gabi.HCGetTime:
		ret = cpu.Cycles

	case gabi.HCMarker:
		vm.Markers = append(vm.Markers, Marker{ID: a0, Cycles: cpu.Cycles})

	case gabi.HCPuts:
		vm.putString(a0)

	case gabi.HCExit:
		vm.HaltCode = uint16(a0)
		vm.State = StateHalted
		cpu.SkipInstr()
		return

	default:
		ret = gabi.HCENoSys
	}
	cpu.SetReg(isa.RegA0, ret)
	cpu.SkipInstr()
}

func (vm *VM) putString(gpa uint64) {
	for i := 0; i < 4096; i++ {
		b, f := vm.Mem.ReadUint(gpa+uint64(i), 1)
		if f != nil || b == 0 {
			return
		}
		vm.UART.MMIOWrite(0, 1, b)
	}
}

// paraMap validates and applies one paravirtual mapping request.
func (vm *VM) paraMap(va, pa, flags uint64) uint64 {
	if vm.Mode != ModePara || vm.tb == nil {
		return gabi.HCEInval
	}
	if va>>isa.VABits != 0 || va&isa.PageMask != 0 || pa&isa.PageMask != 0 {
		return gabi.HCEInval
	}
	// The guest may only map its own RAM, and never the table region.
	gfn := pa >> isa.PageShift
	if gfn >= vm.Mem.Pages() || gfn >= vm.Mem.Pages()-ptRegionPages {
		return gabi.HCEInval
	}
	before := vm.tb.Pages
	if err := vm.tb.Map(va, pa, flags&(isa.PTERead|isa.PTEWrite|isa.PTEExec|isa.PTEUser)); err != nil {
		return gabi.HCEInval
	}
	// Newly allocated table pages must be pinned too.
	if vm.tb.Pages != before {
		for _, ppn := range vm.tb.TablePPNs() {
			if !vm.ptPages[ppn] {
				vm.Mem.WriteProtect(ppn, true)
				vm.ptPages[ppn] = true
			}
		}
	}
	vm.MMUCtx.TLB.FlushPageAllASIDs(va)
	vm.Stats.ParaMaps++
	return gabi.HCOK
}

func (vm *VM) paraUnmap(va uint64) uint64 {
	if vm.Mode != ModePara || vm.tb == nil {
		return gabi.HCEInval
	}
	if err := vm.tb.Unmap(va); err != nil {
		return gabi.HCEInval
	}
	vm.MMUCtx.TLB.FlushPageAllASIDs(va)
	vm.Stats.ParaMaps++
	return gabi.HCOK
}

// paraBatch applies count {va, pa, flags} triples from guest memory in one
// hypercall — the multicall batching that gives paravirtual MMU updates
// their amortized cost (ablation A1 compares against unbatched).
func (vm *VM) paraBatch(gpa, count uint64) uint64 {
	if vm.Mode != ModePara || count > 4096 {
		return gabi.HCEInval
	}
	var buf [gabi.BatchEntrySize]byte
	for i := uint64(0); i < count; i++ {
		if f := vm.Mem.Read(gpa+i*gabi.BatchEntrySize, buf[:]); f != nil {
			return gabi.HCEInval
		}
		va, pa, flags := gabi.DecodeBatchEntry(buf[:])
		if rc := vm.paraMap(va, pa, flags); rc != gabi.HCOK {
			return rc
		}
		// Charge the per-entry validation work, far cheaper than a
		// separate hypercall round trip.
		vm.CPU.AddCycles(vm.costs.MemAccess * 3)
	}
	vm.Stats.ParaBatches++
	return gabi.HCOK
}
