package snapshot

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// vmFingerprint digests everything Restore would touch, so tests can prove
// a rejected stream changed nothing.
func vmFingerprint(vm *core.VM) string {
	var b bytes.Buffer
	cpu := vm.CPU
	for _, x := range cpu.X {
		binary.Write(&b, binary.LittleEndian, x)
	}
	binary.Write(&b, binary.LittleEndian, cpu.PC)
	binary.Write(&b, binary.LittleEndian, uint64(cpu.Priv))
	binary.Write(&b, binary.LittleEndian, cpu.Cycles)
	binary.Write(&b, binary.LittleEndian, cpu.Instret)
	binary.Write(&b, binary.LittleEndian, cpu.CSR)
	binary.Write(&b, binary.LittleEndian, vm.Params)
	binary.Write(&b, binary.LittleEndian, vm.HaltCode)
	binary.Write(&b, binary.LittleEndian, uint64(vm.State))
	binary.Write(&b, binary.LittleEndian, vm.Mem.Present())
	buf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		vm.Mem.ReadRaw(gfn, buf)
		b.Write(buf)
	}
	return b.String()
}

// goodSnapshot serializes a paused workload VM.
func goodSnapshot(t *testing.T, pool *mem.Pool) []byte {
	t.Helper()
	src := runningVM(t, pool, "snap-src")
	src.Pause()
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustRejectCleanly asserts Restore errors without panicking and without
// touching a single byte of the target VM.
func mustRejectCleanly(t *testing.T, pool *mem.Pool, name string, stream []byte) error {
	t.Helper()
	err := restoreOrKeep(t, freshVM(t, pool, name), stream)
	if err == nil {
		t.Fatalf("%s: corrupt stream accepted", name)
	}
	return err
}

// restoreOrKeep restores stream into the fresh VM dst and returns Restore's
// error, failing t unless dst is running after a success, or exactly as it
// was (every byte, and still created) after an error.
func restoreOrKeep(t *testing.T, dst *core.VM, stream []byte) error {
	t.Helper()
	before := vmFingerprint(dst)
	err := Restore(dst, bytes.NewReader(stream))
	switch {
	case err == nil && dst.State != core.StateRunning:
		t.Fatalf("%s: restored VM is %v", dst.Name, dst.State)
	case err != nil && vmFingerprint(dst) != before:
		t.Fatalf("%s: rejected restore modified the VM (err was %v)", dst.Name, err)
	case err != nil && dst.State != core.StateCreated:
		t.Fatalf("%s: rejected restore changed state to %v", dst.Name, dst.State)
	}
	return err
}

// fuzzRAM is the fuzz target's VM size: the 32-page minimum NewVM accepts.
const fuzzRAM = 32 * isa.PageSize

// FuzzSnapshotRestore: Restore is total over arbitrary streams — any input
// either restores (the VM comes up running) or errors with the target's
// fingerprint unchanged; never a panic, never a half-adopted image.
func FuzzSnapshotRestore(f *testing.F) {
	// Small VMs and a small valid stream (two data pages, a non-trivial
	// arch state) keep each run cheap and the mutator on every section
	// rather than on page bytes.
	pool := mem.NewPool(4 * fuzzRAM >> isa.PageShift)
	fuzzVM := func(tb testing.TB, name string) *core.VM {
		vm, err := core.NewVM(pool, core.Config{Name: name, Mode: core.ModeHW, MemBytes: fuzzRAM})
		if err != nil {
			tb.Fatal(err)
		}
		return vm
	}
	src := fuzzVM(f, "fuzz-src")
	page := bytes.Repeat([]byte{0xA5}, isa.PageSize)
	for _, gfn := range []uint64{3, 9} {
		if err := src.Mem.WriteRaw(gfn, page); err != nil {
			f.Fatal(err)
		}
	}
	src.CPU.PC, src.CPU.Priv, src.CPU.X[2] = 0x1000, 1, 0xFFF0
	src.Params[0], src.HaltCode = 42, 7
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, n := range []int{0, offNPages + 4, offCount - 8, offFirstG + 8 + 100, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(v1Stream(good))

	f.Fuzz(func(t *testing.T, stream []byte) {
		dst := fuzzVM(t, "fuzz-dst")
		defer dst.Release()
		restoreOrKeep(t, dst, stream)
	})
}

// byte offsets into a snapshot stream (see the package doc).
const (
	offVersion = 8
	offMode    = 16
	offNPages  = 24
	offArch    = 32
	offPriv    = offArch + 33*8 // after the GPRs and PC
	offHalt    = offArch + core.ArchStateSize - 8
	offCount   = offArch + core.ArchStateSize
	offFirstG  = offCount + 8
)

// v1Stream rewrites a version-2 stream as the version-1 format wrote the
// same VM: no parameter block or halt code, so its CPU section is the first
// 46 words of the arch state (GPRs, PC, priv, cycles, instret, CSRs).
func v1Stream(v2 []byte) []byte {
	s := append([]byte(nil), v2[:offArch]...)
	binary.LittleEndian.PutUint64(s[offVersion:], 1)
	s = append(s, v2[offArch:offArch+46*8]...)
	return append(s, v2[offCount:]...)
}

// TestRestoreStagedRejection: every class of damage — truncation at each
// region, bad or old version, bad mode, out-of-range arch words, oversized
// page count, out-of-range or duplicate gfn — must error cleanly with zero
// partial adoption.
func TestRestoreStagedRejection(t *testing.T) {
	pool := mem.NewPool(16 * vmRAM >> isa.PageShift)
	good := goodSnapshot(t, pool)
	if len(good) < offFirstG+8+isa.PageSize {
		t.Fatalf("snapshot unexpectedly small: %d bytes", len(good))
	}
	mut := func(off int, v uint64) []byte {
		s := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(s[off:], v)
		return s
	}

	// Each case names the reason Restore must give, so a stream rejected
	// for some other damage does not pass for this one.
	cases := []struct {
		name   string
		stream []byte
		reason string
	}{
		{"version-skew", mut(offVersion, version+1), "version"},
		{"v1-stream", v1Stream(good), "version = 0x1"},
		{"mode-out-of-range", mut(offMode, 1<<8|uint64(core.ModeHW)), "mode 0x103"},
		{"mode-mismatch", mut(offMode, uint64(core.ModeTrap)), "source mode trap"},
		{"npages-overflow", mut(offNPages, 1<<40), "pages of RAM"},
		{"priv-2", mut(offPriv, 2), "word 33 = 0x2"},
		{"priv-3", mut(offPriv, 3), "word 33 = 0x3"},
		{"halt-code-overflow", mut(offHalt, 1<<16), "word 94"},
		{"count-overflow", mut(offCount, ^uint64(0)), "page count"},
		{"count-exceeds-npages", mut(offCount, vmRAM>>isa.PageShift+1), "page count"},
		{"gfn-out-of-range", mut(offFirstG, 1<<40), "outside image"},
		{"truncated-header", good[:offNPages+4], "EOF"},
		{"truncated-cpu", good[:offCount-8], "arch state: unexpected EOF"},
		{"truncated-mid-page", good[:offFirstG+8+100], "EOF"},
		{"truncated-last-page", good[:len(good)-1], "EOF"},
	}
	// Duplicate gfn: make page 2's gfn equal page 1's.
	if binary.LittleEndian.Uint64(good[offCount:]) >= 2 {
		dup := append([]byte(nil), good...)
		first := binary.LittleEndian.Uint64(dup[offFirstG:])
		binary.LittleEndian.PutUint64(dup[offFirstG+8+isa.PageSize:], first)
		cases = append(cases, struct {
			name   string
			stream []byte
			reason string
		}{"duplicate-gfn", dup, "appears twice"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mustRejectCleanly(t, pool, "dst-"+tc.name, tc.stream); !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("rejected for %q, want %q", err, tc.reason)
			}
		})
	}
	// The unmodified stream still restores — the mutations above, not the
	// fixture, are what Restore rejected.
	dst := freshVM(t, pool, "dst-good")
	if err := Restore(dst, bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	if dst.State != core.StateRunning {
		t.Fatalf("restored VM state %v", dst.State)
	}
}

// TestRestoreRejectsBootedTarget: restoring over a running VM would splice
// two machine states together; it must refuse before touching the VM.
func TestRestoreRejectsBootedTarget(t *testing.T) {
	pool := mem.NewPool(16 * vmRAM >> isa.PageShift)
	good := goodSnapshot(t, pool)
	dst := runningVM(t, pool, "booted")
	if err := Restore(dst, bytes.NewReader(good)); err == nil {
		t.Fatal("restore over a running VM accepted")
	}
	if dst.State != core.StateRunning {
		t.Fatalf("rejected restore changed running VM state to %v", dst.State)
	}
}

// TestCloneRejectsSelfAndAliased: cloning a VM onto itself or onto a shell
// sharing its guest-physical space must fail cleanly.
func TestCloneRejectsSelfAndAliased(t *testing.T) {
	pool := mem.NewPool(8 * vmRAM >> isa.PageShift)
	src := runningVM(t, pool, "src")
	src.Pause()
	if err := Clone(src, src); err == nil {
		t.Fatal("self-clone accepted")
	} else if !strings.Contains(err.Error(), "same VM") {
		t.Fatalf("unexpected error: %v", err)
	}
	alias := *src
	if err := Clone(src, &alias); err == nil {
		t.Fatal("aliased-memory clone accepted")
	} else if !strings.Contains(err.Error(), "guest-physical") {
		t.Fatalf("unexpected error: %v", err)
	}
	if src.State != core.StatePaused {
		t.Fatalf("rejected clone changed source state to %v", src.State)
	}
}
