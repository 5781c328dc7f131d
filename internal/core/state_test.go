package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/migrate"
	"govisor/internal/snapshot"
)

// TestArchStateCodec: the encoding is ArchStateSize bytes, round-trips every
// field, and the decoder refuses a wrong length, a privilege other than
// PrivU/PrivS (including one whose low byte is legal) and a halt code wider
// than 16 bits.
func TestArchStateCodec(t *testing.T) {
	var a core.ArchState
	for i := range a.X {
		a.X[i] = uint64(i) * 0x0101_0101_0101_0101
	}
	a.PC, a.Priv, a.Cycles, a.Instret = 0x1000, 1, 1<<40, 1<<39
	a.CSR.Sstatus, a.CSR.Stimecmp, a.CSR.Satp = 0x22, ^uint64(0), 1<<63|42
	a.Params[0], a.Params[gabi.ParamSlots-1], a.HaltCode = 7, 9, 0xFFFF
	enc := a.Append(nil)
	if len(enc) != core.ArchStateSize || core.ArchStateSize != 760 {
		t.Fatalf("encoding is %d bytes, ArchStateSize %d, want 760", len(enc), core.ArchStateSize)
	}
	if got, err := core.DecodeArchState(enc); err != nil || got != a {
		t.Fatalf("round trip: err %v, state changed %v", err, got != a)
	}

	word := func(i int, v uint64) []byte {
		b := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(b[i*8:], v)
		return b
	}
	const privWord, haltWord = 33, core.ArchStateSize/8 - 1
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"short", enc[:core.ArchStateSize-1]},
		{"long", append(append([]byte(nil), enc...), 0)},
		{"empty", nil},
		{"priv-2", word(privWord, 2)},
		{"priv-3", word(privWord, 3)},
		{"priv-wide", word(privWord, 1<<8)},
		{"halt-wide", word(haltWord, 1<<16)},
	} {
		if _, err := core.DecodeArchState(tc.p); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
	if got, err := core.DecodeArchState(word(privWord, 0)); err != nil || got.Priv != 0 {
		t.Fatalf("PrivU refused: %v", err)
	}
}

// TestReceiverRuleIsShared: clone, snapshot restore and streamed migration
// apply one receiver rule. A ModePara source is refused by all three — its
// table builder, pins and write-protect bits travel with none of them, so a
// receiver would fail the guest's next MMU hypercall — and so is a receiver
// of another mode. Each refusal leaves both VMs as they were, and the para
// source still finishes its run.
func TestReceiverRuleIsShared(t *testing.T) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	const ram = 2 << 20
	for _, tc := range []struct {
		name     string
		src, dst core.Mode
		w        guest.Workload
		want     func(error) bool
	}{
		{"para", core.ModePara, core.ModePara, guest.PTChurn(200, false),
			func(err error) bool { return errors.Is(err, core.ErrParaState) }},
		{"hw-to-trap", core.ModeHW, core.ModeTrap, guest.Dirty(0, 8, 500),
			func(err error) bool { return strings.Contains(err.Error(), "mode hw, destination mode trap") }},
	} {
		pool := mem.NewPool(8 * ram >> isa.PageShift)
		newVM := func(name string, mode core.Mode) *core.VM {
			vm, err := core.NewVM(pool, core.Config{Name: name, Mode: mode, MemBytes: ram})
			if err != nil {
				t.Fatal(err)
			}
			return vm
		}
		src := newVM("src", tc.src)
		tc.w.Apply(src)
		if err := src.Boot(kernel); err != nil {
			t.Fatal(err)
		}
		src.Step(20_000)
		if src.State != core.StateRunning {
			t.Fatalf("%s: source is %v mid-run", tc.name, src.State)
		}
		for _, recv := range []struct {
			name string
			do   func(dst *core.VM) error
		}{
			{"clone", func(dst *core.VM) error { return snapshot.Clone(src, dst) }},
			{"restore", func(dst *core.VM) error {
				var img bytes.Buffer
				if err := snapshot.Save(src, &img); err != nil {
					t.Fatal(err)
				}
				return snapshot.Restore(dst, &img)
			}},
			{"migrate", func(dst *core.VM) error {
				_, err := migrate.StreamMigrate(src, dst, migrate.DefaultStreamOptions())
				return err
			}},
		} {
			dst := newVM("dst-"+recv.name, tc.dst)
			if err := recv.do(dst); err == nil || !tc.want(err) {
				t.Errorf("%s/%s: got %v", tc.name, recv.name, err)
			}
			if src.State != core.StateRunning || dst.State != core.StateCreated {
				t.Errorf("%s/%s: refusal left source %v, destination %v", tc.name, recv.name, src.State, dst.State)
			}
		}
		if tc.src != core.ModePara {
			continue
		}
		if st := src.RunToHalt(500_000_000); st != core.StateHalted || src.HaltCode != 0 {
			t.Fatalf("para source ended %v halt %#x (err %v)", st, src.HaltCode, src.Err)
		}
		if src.Stats.ParaMaps != 200*core.ChurnWindowPages*2 {
			t.Fatalf("para source validated %d maps, want %d", src.Stats.ParaMaps, 200*core.ChurnWindowPages*2)
		}
	}
}
