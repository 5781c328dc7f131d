package migrate

import (
	"bytes"
	"testing"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// addZeroAndDataPages gives a source guest 64 extra pages from the middle
// of its RAM, which the kernel and the dirty workload leave alone: some
// present but never materialized, some materialized and then cleared, some
// with content.
func addZeroAndDataPages(t *testing.T, src *core.VM) {
	t.Helper()
	data := make([]byte, isa.PageSize)
	zero := make([]byte, isa.PageSize)
	for gfn := src.Mem.Pages() / 2; gfn < src.Mem.Pages()/2+64; gfn++ {
		if src.Mem.Frame(gfn) != mem.NoFrame {
			t.Fatalf("gfn %d is already in use by the guest", gfn)
		}
		for i := range data {
			data[i] = byte(gfn) ^ byte(i) | 1
		}
		var err error
		switch gfn % 4 {
		case 0:
			err = src.Mem.Populate(gfn)
		case 1:
			if err = src.Mem.WriteRaw(gfn, data); err == nil {
				err = src.Mem.WriteRaw(gfn, zero)
			}
		case 2:
			err = src.Mem.WriteRaw(gfn, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroPagesLandWithoutFrames: a migrated guest's zero pages arrive as
// zero runs (pre-copy) or zero pulls (post-copy) and take no backing array
// on the destination. With N non-zero pages on the paused source, the
// destination holds exactly N materialized frames, and its RAM equals the
// source's byte for byte.
func TestZeroPagesLandWithoutFrames(t *testing.T) {
	for _, mode := range []Mode{PreCopy, PostCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			src, dst := pair(t, 16, 2000)
			addZeroAndDataPages(t, src)
			opt := DefaultStreamOptions()
			opt.Mode = mode
			opt.PostCopyPushChunk = 0
			if _, err := StreamMigrate(src, dst, opt); err != nil {
				t.Fatal(err)
			}
			if mode == PostCopy {
				// Pull every present page, installing it as the
				// destination's fault handler does.
				hook := dst.PageSource
				for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
					if src.Mem.Frame(gfn) == mem.NoFrame {
						continue
					}
					if page, ok := hook(gfn); ok {
						if err := dst.Mem.WriteRaw(gfn, page); err != nil {
							t.Fatal(err)
						}
					}
				}
				if dst.PageSource != nil {
					t.Fatal("PageSource still installed after every page was pulled")
				}
			}

			var nonZero, srcMaterialZero, materialized uint64
			want := make([]byte, isa.PageSize)
			got := make([]byte, isa.PageSize)
			for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
				src.Mem.ReadRaw(gfn, want)
				dst.Mem.ReadRaw(gfn, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("gfn %d differs between source and destination", gfn)
				}
				zero := mem.IsZeroPage(want)
				if !zero {
					nonZero++
				}
				if hfn := src.Mem.Frame(gfn); zero && hfn != mem.NoFrame && src.Mem.Pool().Data(hfn) != nil {
					srcMaterialZero++
				}
				if hfn := dst.Mem.Frame(gfn); hfn != mem.NoFrame && dst.Mem.Pool().Data(hfn) != nil {
					materialized++
				}
			}
			if materialized != nonZero {
				t.Fatalf("destination materialized %d frames for %d non-zero pages", materialized, nonZero)
			}
			if dst.Mem.Present() != src.Mem.Present() || dst.Mem.Present() <= nonZero || srcMaterialZero == 0 {
				t.Fatalf("no zero pages to prove the rule on: %d present on the destination (%d on the source), %d non-zero, %d materialized zero on the source",
					dst.Mem.Present(), src.Mem.Present(), nonZero, srcMaterialZero)
			}
		})
	}
}
