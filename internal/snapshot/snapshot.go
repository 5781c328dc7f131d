// Package snapshot implements whole-VM state capture: serialization of a
// VM's architectural state and memory image to a portable binary format
// (save/restore, disaster recovery), and instant copy-on-write cloning of a
// running VM on the same host (the rapid-provisioning path of experiment
// T14).
//
// A version-2 stream is, in little-endian u64 words unless noted:
//
//	magic "GVSV" | version 2 | mode | RAM pages
//	core.ArchStateSize bytes of core.ArchState (registers, counters,
//	    CSRs, parameter block, halt code — the migration arch frame's bytes)
//	page count | count × (gfn | one page of content)
//
// Only present, non-zero pages are stored. Version 1 (no parameter block or
// halt code) is rejected. Device state is not captured. Who may receive a
// stream or a clone is core.VM.CheckReceiver's rule.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// magic identifies govisor snapshot streams.
const magic = 0x47565356 // "GVSV"

const version = 2

// Save serializes the VM (which should be paused or halted for a consistent
// image) to w. Only present pages are stored; zero pages are elided, so
// sparse guests stay small.
func Save(vm *core.VM, w io.Writer) error {
	bw := bufio.NewWriter(w)

	var scratch [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		bw.Write(scratch[:])
	}

	wu(magic)
	wu(version)
	wu(uint64(vm.Mode))
	wu(vm.Mem.Pages())

	var arch [core.ArchStateSize]byte
	bw.Write(vm.CaptureArch().Append(arch[:0]))

	// Memory: count, then (gfn, page) pairs for non-zero present pages.
	var pages []uint64
	buf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		hfn := vm.Mem.Frame(gfn)
		if hfn == mem.NoFrame || vm.Mem.Pool().IsZero(hfn) {
			continue
		}
		pages = append(pages, gfn)
	}
	wu(uint64(len(pages)))
	for _, gfn := range pages {
		wu(gfn)
		vm.Mem.ReadRaw(gfn, buf)
		bw.Write(buf)
	}
	return bw.Flush()
}

// Restore loads a snapshot stream into a VM that may receive it
// (core.VM.CheckReceiver: freshly created, the snapshot's mode, at least its
// memory size) and marks it running.
//
// The stream is fully parsed and validated into temporaries before any VM
// state is touched: a truncated, corrupted, or version-skewed stream is an
// error that leaves the VM exactly as it was — never a panic, never a
// half-adopted image.
func Restore(vm *core.VM, r io.Reader) error {
	br := bufio.NewReader(r)
	var scratch [8]byte
	ru := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	need := func(what string, want uint64) error {
		got, err := ru()
		if err != nil {
			return fmt.Errorf("snapshot: reading %s: %w", what, err)
		}
		if got != want {
			return fmt.Errorf("snapshot: %s = %#x, want %#x", what, got, want)
		}
		return nil
	}
	if err := need("magic", magic); err != nil {
		return err
	}
	if err := need("version", version); err != nil {
		return err
	}
	modev, err := ru()
	if err != nil {
		return fmt.Errorf("snapshot: reading mode: %w", err)
	}
	npages, err := ru()
	if err != nil {
		return fmt.Errorf("snapshot: reading RAM size: %w", err)
	}
	mode := core.Mode(modev)
	if uint64(mode) != modev {
		return fmt.Errorf("snapshot: mode %#x out of range", modev)
	}
	if err := vm.CheckReceiver(nil, mode, npages); err != nil {
		return fmt.Errorf("snapshot: restore: %w", err)
	}
	var archBuf [core.ArchStateSize]byte
	if _, err := io.ReadFull(br, archBuf[:]); err != nil {
		return fmt.Errorf("snapshot: reading arch state: %w", err)
	}
	arch, err := core.DecodeArchState(archBuf[:])
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}

	// Stage the memory image. Save emits each present page at most once,
	// so count is bounded by npages and gfns must be in-range and unique —
	// anything else is corruption, caught here before a single page lands.
	count, err := ru()
	if err != nil {
		return fmt.Errorf("snapshot: reading page count: %w", err)
	}
	if count > npages {
		return fmt.Errorf("snapshot: page count %d exceeds image size %d", count, npages)
	}
	type staged struct {
		gfn  uint64
		data []byte
	}
	pages := make([]staged, 0, count)
	seen := make([]byte, (npages+7)/8)
	for i := uint64(0); i < count; i++ {
		gfn, err := ru()
		if err != nil {
			return fmt.Errorf("snapshot: reading page %d gfn: %w", i, err)
		}
		if gfn >= npages {
			return fmt.Errorf("snapshot: gfn %d outside image of %d pages", gfn, npages)
		}
		if seen[gfn>>3]&(1<<(gfn&7)) != 0 {
			return fmt.Errorf("snapshot: gfn %d appears twice", gfn)
		}
		seen[gfn>>3] |= 1 << (gfn & 7)
		buf := make([]byte, isa.PageSize)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("snapshot: page %d content: %w", gfn, err)
		}
		pages = append(pages, staged{gfn, buf})
	}

	// Everything parsed and validated: apply atomically.
	for _, p := range pages {
		if err := vm.Mem.WriteRaw(p.gfn, p.data); err != nil {
			return fmt.Errorf("snapshot: applying gfn %d: %w", p.gfn, err)
		}
	}
	vm.AdoptArch(arch)
	return nil
}

// Clone instantly forks src into dst on the same host pool: every present
// page is shared copy-on-write, so the clone costs no page copies up front
// and splits lazily as either side writes. dst must be a receiver for src
// (core.VM.CheckReceiver) over the same host pool.
func Clone(src, dst *core.VM) error {
	if err := dst.CheckReceiver(src, src.Mode, src.Mem.Pages()); err != nil {
		return fmt.Errorf("snapshot: clone: %w", err)
	}
	if dst.Mem.Pool() != src.Mem.Pool() {
		return fmt.Errorf("snapshot: clone requires a shared host pool")
	}
	pool := src.Mem.Pool()
	for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
		hfn := src.Mem.Frame(gfn)
		if hfn == mem.NoFrame {
			continue
		}
		pool.IncRef(hfn)
		dst.Mem.MapShared(gfn, hfn)
		// The source side becomes COW too: its next write must split.
		src.Mem.MarkCOWIfMapped(gfn, hfn)
	}
	dst.AdoptArch(src.CaptureArch())
	return nil
}
