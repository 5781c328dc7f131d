package core_test

import (
	"testing"

	"govisor/internal/asm"
	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// TestBootLayoutSmallRAM: over every RAM size from 32 to 130 pages, a VM is
// either refused cleanly by NewVM or Boot, or it boots and retires
// instructions. The boot page tables take the top 64 pages of RAM, so at
// the small end they would overlap the kernel image, the parameter block or
// the boot stack; Boot must refuse those layouts rather than hand the guest
// a table region that covers its own code, or a heap that runs into it.
func TestBootLayoutSmallRAM(t *testing.T) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	b := asm.NewBuilder(gabi.KernelBase)
	b.Label("loop")
	b.I(isa.OpADDI, isa.RegT0, isa.RegT0, 1)
	b.J("loop")
	spin, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	booted := 0
	for pages := uint64(32); pages <= 130; pages++ {
		for _, img := range []struct {
			name  string
			bytes []byte
		}{{"kernel", kernel}, {"spin", spin}} {
			vm, err := core.NewVM(mem.NewPool(2*pages), core.Config{Name: img.name, Mode: core.ModeHW, MemBytes: pages << isa.PageShift})
			if err != nil {
				continue
			}
			guest.Compute(1<<40, 0).Apply(vm)
			if err := vm.Boot(img.bytes); err != nil {
				continue
			}
			vm.Step(100_000)
			if vm.State == core.StateError || vm.CPU.Instret == 0 {
				t.Errorf("%s, %d pages: booted but retired %d instructions (state %v, pc %#x, err %v)",
					img.name, pages, vm.CPU.Instret, vm.State, vm.CPU.PC, vm.Err)
			}
			if hb, hp := vm.Params[gabi.PHeapBase], vm.Params[gabi.PHeapPages]; hp > pages || hb+hp > pages-64 {
				t.Errorf("%s, %d pages: heap [%d, +%d) runs into the boot page tables", img.name, pages, hb, hp)
			}
			booted++
		}
	}
	if booted == 0 {
		t.Fatal("no RAM size up to 130 pages booted")
	}
}
