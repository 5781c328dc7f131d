package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"govisor/internal/core"
	"govisor/internal/storage"
)

// A span is one timed interval at a layer boundary, recorded from outside
// the program: around a call into a public function or between two calls
// the engine makes into an interface the benchmark wraps.
type span struct {
	name       int32 // index into recorder.names
	parent     int32 // index into recorder.spans, -1 for a root
	id         int32 // epoch number (fleet) or slice number (serial)
	start, end int64 // ns since recorder.t0
}

// recorder keeps the spans of one traced unit in memory; they are written
// out only when the benchmark ends. It is used from one goroutine at a time
// (the serial drive loop, or RunParallel's serial phases).
type recorder struct {
	t0     time.Time
	names  []string
	byName map[string]int32
	spans  []span

	runStart, runEnd int64        // the measured region
	profile          bytes.Buffer // its CPU profile (gzipped profile.proto)
}

func newRecorder() *recorder {
	// Room for a typical traced unit up front: growing the slice inside the
	// region would charge reallocation to whichever span is open.
	return &recorder{t0: time.Now(), byName: map[string]int32{}, spans: make([]span, 0, 1<<19)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) nameID(name string) int32 {
	id, ok := r.byName[name]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, name)
		r.byName[name] = id
	}
	return id
}

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent int32, id int, start, end int64) int32 {
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, id: int32(id), start: start, end: end})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part its child spans cover. The spans partition
// the measured region, so the self times sum to its wall clock; what they
// miss is the engine's prologue and epilogue outside any span.
func (r *recorder) selfTimes() map[string]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[r.names[s.name]] += float64(self[i]) / 1e9
	}
	return out
}

// count returns how many spans carry the name.
func (r *recorder) count(name string) int {
	id, ok := r.byName[name]
	if !ok {
		return 0
	}
	n := 0
	for _, s := range r.spans {
		if s.name == id {
			n++
		}
	}
	return n
}

// writeTrace stores the spans as {"names": [...], "spans": [[name, parent,
// id, start_ns, end_ns], ...]}.
func (r *recorder) writeTrace(path, workload string, seed uint64) error {
	rows := make([][5]int64, len(r.spans))
	for i, s := range r.spans {
		rows[i] = [5]int64{int64(s.name), int64(s.parent), int64(s.id), s.start, s.end}
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "names": r.names,
		"columns": []string{"name", "parent", "id", "start_ns", "end_ns"}, "spans": rows,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stepSlice is the guest-cycle budget of one core.step span in the serial
// traced drive loop.
const stepSlice = 1_000_000

// tracedRunToHalt is the benchmark-owned drive loop of the traced serial
// pass: RunToHalt cut into stepSlice slices, each a core.step span under
// the phase's span.
func tracedRunToHalt(vm *core.VM, rec *recorder, phase string) {
	start := rec.now()
	parent := rec.add("phase."+phase, -1, 0, start, start)
	for i := 0; vm.State == core.StateRunning && vm.CPU.Cycles < runBudget; i++ {
		t := rec.now()
		vm.Step(stepSlice)
		rec.add("core.step", parent, i, t, rec.now())
	}
	rec.spans[parent].end = rec.now()
}

// epochTracer partitions every RunParallel epoch from outside. It decorates
// the scheduler the engine calls in its serial phases and the EpochFunc it
// calls at the barrier, and reads the clock at those calls:
//
//	parallel.lease    epoch start        → last BeginLease
//	parallel.exec     last BeginLease    → first Account
//	parallel.barrier  first Account      → last Account/EndLease/Block
//	vnet.flush        end of barrier     → EpochFunc entry
//	epochfn           EpochFunc entry    → EpochFunc exit (= next epoch start)
//
// Scheduler calls and storage.Image calls are child spans, so the self
// times of all spans partition the run's wall clock.
type epochTracer struct {
	core.LeaseScheduler
	rec *recorder
	img *tracedImage // storage spans to adopt under parallel.exec, or nil

	epoch                                           int
	epochStart, lastBegin, firstAccount, barrierEnd int64
	calls                                           []span // this epoch's scheduler calls, parent unset
	epochNs                                         []int64
}

func newEpochTracer(inner core.LeaseScheduler, rec *recorder) *epochTracer {
	return &epochTracer{LeaseScheduler: inner, rec: rec, epochStart: rec.now()}
}

func (t *epochTracer) call(name string, start int64) int64 {
	end := t.rec.now()
	t.calls = append(t.calls, span{name: t.rec.nameID(name), start: start, end: end})
	return end
}

func (t *epochTracer) Next() (int, uint64, bool) {
	s := t.rec.now()
	id, q, ok := t.LeaseScheduler.Next()
	t.call("sched.next", s)
	return id, q, ok
}

func (t *epochTracer) BeginLease(id int) {
	s := t.rec.now()
	t.LeaseScheduler.BeginLease(id)
	t.lastBegin = t.call("sched.begin_lease", s)
}

func (t *epochTracer) Account(id int, used uint64) {
	s := t.rec.now()
	if t.firstAccount == 0 {
		t.firstAccount = s
	}
	t.LeaseScheduler.Account(id, used)
	t.barrierEnd = t.call("sched.account", s)
}

func (t *epochTracer) EndLease(id int) {
	s := t.rec.now()
	t.LeaseScheduler.EndLease(id)
	t.barrierEnd = t.call("sched.end_lease", s)
}

func (t *epochTracer) Block(id int) {
	s := t.rec.now()
	t.LeaseScheduler.Block(id)
	if e := t.call("sched.block", s); t.firstAccount != 0 {
		t.barrierEnd = e
	}
}

func (t *epochTracer) Unblock(id int) {
	s := t.rec.now()
	t.LeaseScheduler.Unblock(id)
	t.call("sched.unblock", s)
}

// wrapEpochFunc returns the EpochFunc to install: it closes the epoch's
// engine-side spans, then runs each barrier service under its own span.
func (t *epochTracer) wrapEpochFunc(services []epochService) func() {
	return func() {
		entry := t.rec.now()
		r := t.rec
		phases := [4]int32{
			r.add("parallel.lease", -1, t.epoch, t.epochStart, t.lastBegin),
			r.add("parallel.exec", -1, t.epoch, t.lastBegin, t.firstAccount),
			r.add("parallel.barrier", -1, t.epoch, t.firstAccount, t.barrierEnd),
			r.add("vnet.flush", -1, t.epoch, t.barrierEnd, entry),
		}
		for _, c := range t.calls {
			c.parent, c.id = phases[0], int32(t.epoch)
			if c.start >= t.firstAccount {
				c.parent = phases[2]
			}
			r.spans = append(r.spans, c)
		}
		t.calls = t.calls[:0]
		if t.img != nil {
			for _, c := range t.img.pending {
				c.parent, c.id = phases[1], int32(t.epoch)
				r.spans = append(r.spans, c)
			}
			t.img.pending = t.img.pending[:0]
		}
		fn := r.add("epochfn", -1, t.epoch, entry, entry)
		// Closing the epoch's spans is tracing work, not program work.
		r.add("trace.bookkeeping", fn, t.epoch, entry, r.now())
		for _, svc := range services {
			s := r.now()
			if svc.run(t.epoch) {
				r.add(svc.name, fn, t.epoch, s, r.now())
			}
		}
		exit := r.now()
		r.spans[fn].end = exit
		t.epochNs = append(t.epochNs, exit-t.epochStart)
		t.epoch++
		t.epochStart, t.lastBegin, t.firstAccount, t.barrierEnd = exit, 0, 0, 0
	}
}

// epochPercentileUs returns the q-quantile epoch duration in microseconds.
func (t *epochTracer) epochPercentileUs(q float64) float64 {
	if len(t.epochNs) == 0 {
		return 0
	}
	s := append([]int64(nil), t.epochNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))]) / 1e3
}

// epochService is one cross-VM service run from Host.EpochFunc. run reports
// whether it did any work this epoch (idle epochs record no span).
type epochService struct {
	name string
	run  func(epoch int) bool
}

// plainEpochFunc is the untraced EpochFunc: the same services, no clocks.
func plainEpochFunc(services []epochService) func() {
	epoch := 0
	return func() {
		for _, svc := range services {
			svc.run(epoch)
		}
		epoch++
	}
}

// wrapImage is the benchmark-owned disk behind the virtio-blk writer: it
// folds the guest's ever-growing LBAs onto a small raw image so a long run
// does not grow host memory, and counts sector operations.
type wrapImage struct {
	inner *storage.Raw
	ops   uint64
}

const wrapSectors = 4096

func newWrapImage() *wrapImage { return &wrapImage{inner: storage.NewRaw(wrapSectors)} }

func (w *wrapImage) Sectors() uint64 { return 1 << 40 }

func (w *wrapImage) ReadSector(lba uint64, buf []byte) error {
	w.ops++
	return w.inner.ReadSector(lba%wrapSectors, buf)
}

func (w *wrapImage) WriteSector(lba uint64, buf []byte) error {
	w.ops++
	return w.inner.WriteSector(lba%wrapSectors, buf)
}

// tracedImage times every call into the image. The calls come from the
// worker goroutine holding the writer VM's lease; the epoch barrier orders
// them before epochTracer reads pending.
type tracedImage struct {
	*wrapImage
	rec         *recorder
	read, write int32 // span name ids, interned before any worker runs
	pending     []span
}

func (t *tracedImage) ReadSector(lba uint64, buf []byte) error {
	s := t.rec.now()
	err := t.wrapImage.ReadSector(lba, buf)
	t.pending = append(t.pending, span{name: t.read, start: s, end: t.rec.now()})
	return err
}

func (t *tracedImage) WriteSector(lba uint64, buf []byte) error {
	s := t.rec.now()
	err := t.wrapImage.WriteSector(lba, buf)
	t.pending = append(t.pending, span{name: t.write, start: s, end: t.rec.now()})
	return err
}

func newTracedImage(rec *recorder) *tracedImage {
	return &tracedImage{wrapImage: newWrapImage(), rec: rec,
		read: rec.nameID("storage.read"), write: rec.nameID("storage.write")}
}
