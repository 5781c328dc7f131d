package guest

import (
	"math/rand"
	"testing"

	"govisor/internal/core"
	"govisor/internal/gabi"
)

// TestDifferentialExecutionAcrossModes is the transparency property at the
// heart of virtualization: for any workload, every virtualization mode must
// produce exactly the result the native machine produces — the modes may
// only differ in *time*. Randomized workload parameters, one seed, four
// machines.
func TestDifferentialExecutionAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type config struct {
		name string
		w    Workload
	}
	var configs []config
	for i := 0; i < 6; i++ {
		configs = append(configs,
			config{"compute", Compute(uint64(rng.Intn(400)+50), uint64(rng.Intn(40)))},
			config{"memtouch", MemTouch(uint64(rng.Intn(4)+1), uint64(rng.Intn(200)+16), uint64(rng.Intn(100)))},
			config{"syscall", Syscall(uint64(rng.Intn(100) + 10))},
			config{"csr", CSRLoop(uint64(rng.Intn(200) + 20))},
		)
	}
	for i, cfg := range configs {
		var ref uint64
		var refSet bool
		for _, mode := range allModes {
			vm := bootAndRun(t, mode, cfg.w)
			got := vm.Result(gabi.PResult0)
			if !refSet {
				ref = got
				refSet = true
				continue
			}
			if got != ref {
				t.Fatalf("config %d (%s): %v computed %d, native computed %d — virtualization is not transparent",
					i, cfg.name, mode, got, ref)
			}
		}
	}
}

// TestDifferentialMemoryImage: after the same deterministic workload, the
// guest-visible heap contents must be identical across modes (shadow tables,
// nested walks and hypercall paging must never corrupt data).
func TestDifferentialMemoryImage(t *testing.T) {
	w := MemTouch(3, 64, 50)
	heap := func(vm *core.VM) []byte {
		base := vm.Result(0) // unused slot; compute heap from params instead
		_ = base
		hb, _ := vm.Mem.ReadUint(gabi.ParamBase+gabi.PHeapBase*8, 8)
		buf := make([]byte, 64*4096)
		for i := uint64(0); i < 64; i++ {
			vm.Mem.ReadRaw(hb+i, buf[i*4096:(i+1)*4096])
		}
		return buf
	}
	var ref []byte
	for _, mode := range allModes {
		vm := bootAndRun(t, mode, w)
		img := heap(vm)
		if ref == nil {
			ref = img
			continue
		}
		for i := range img {
			if img[i] != ref[i] {
				t.Fatalf("%v: heap byte %d differs (%d vs %d)", mode, i, img[i], ref[i])
			}
		}
	}
}
