package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func toManifest(defs []metricDef, bounds bool) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, m := range defs {
		out[i] = manifestMetric{Name: m.name, Unit: m.unit, Better: m.better}
		if bounds {
			b := m.bound
			out[i].Bound = &b
		}
	}
	return out
}

// TestManifestMatchesCatalogue: BENCHMARK.json names exactly the workloads
// and metrics the code measures, with the same units, directions and bounds.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code has %d", m.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if want := toManifest(endToEnd, true); !reflect.DeepEqual(m.EndToEnd, want) {
		t.Errorf("end_to_end differs from the catalogue:\n got %+v\nwant %+v", m.EndToEnd, want)
	}
	if want := toManifest(perLayer, false); !reflect.DeepEqual(m.PerLayer, want) {
		t.Errorf("per_layer differs from the catalogue")
		for i := range want {
			if i >= len(m.PerLayer) || m.PerLayer[i] != want[i] {
				t.Errorf("first difference at %d: want %+v", i, want[i])
				break
			}
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

func metricNames(r *runResult) []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func applicable(defs []metricDef, workload string) []string {
	var names []string
	for _, m := range defs {
		if m.appliesTo(workload) {
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}

// TestQuickSuite is the smoke run: all five workloads at -quick size with
// tracing off, then the traced pass, through the same code the full-size
// benchmark runs.
func TestQuickSuite(t *testing.T) {
	p := params{seed: 1, quick: true}
	outDir := t.TempDir()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSuite(p, 1, func(w string, trace bool) (*runResult, error) {
		r, err := measure(w, p, 0, trace, outDir)
		if err != nil {
			return nil, err
		}
		for _, f := range r.Failures {
			t.Errorf("%s (trace %v): %s", w, trace, f)
		}
		// Every metric the catalogue names for this workload is emitted,
		// exactly once (they are map keys), and nothing else is.
		want := applicable(perLayer, w)
		if !trace {
			want = applicable(slices.Concat(endToEnd, suiteOnly[:1]), w) // + frames_per_s
		}
		if got := metricNames(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (trace %v) emitted\n %v\nwant\n %v", w, trace, got, want)
		}
		if r.Digest != g.Quick[w] {
			t.Errorf("%s: quick sim_digest %s, golden.json has %s", w, r.Digest, g.Quick[w])
		}
		if trace {
			if s := r.Metrics["trace.self_sum_ratio"].Value; s < 0.98 || s > 1.02 {
				t.Errorf("%s: span self times sum to %.4f of the wall clock, want within 2%%", w, s)
			}
			var shares float64
			for _, l := range slices.Concat([]string{"other"}, profileLayers) {
				shares += r.Metrics[l+".cpu_share"].Value
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("%s: cpu shares sum to %.4f, want 1", w, shares)
			}
			if _, err := os.Stat(outDir + "/trace_" + w + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w, err)
			}
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil {
		t.Errorf("claim is %q, want null", *res.Claim)
	}
	for v, n := range compareResults(res, res) {
		if v != verdictSame && n != 0 {
			t.Errorf("comparing a result with itself gave %d %q verdicts", n, v)
		}
	}
}

func TestVerdict(t *testing.T) {
	stat := func(better string, runs ...float64) *endToEndStat {
		return &endToEndStat{Better: better, Bound: 0.05, Runs: runs, Median: median(runs)}
	}
	for _, tc := range []struct {
		name string
		a, b *endToEndStat
		want string
	}{
		{"identical", stat("lower", 10, 10.1, 9.9), stat("lower", 10, 10.1, 9.9), verdictSame},
		{"within bound", stat("lower", 10, 10.1, 9.9), stat("lower", 10.2, 10.0, 10.1), verdictSame},
		{"median worse", stat("lower", 10, 10.1, 9.9, 10.05, 10.02), stat("lower", 10.6, 10.65, 10.7, 10.62, 10.05), verdictWorse},
		{"every run better but within bound", stat("lower", 10, 10.1, 9.9), stat("lower", 9.8, 9.7, 9.85), verdictSame},
		{"median better", stat("higher", 10, 10.1, 9.9), stat("higher", 10.8, 10.7, 10.85), verdictBetter},
		{"spread beyond bound", stat("lower", 10, 12, 8, 11, 9), stat("lower", 10.5, 12, 8, 11, 9), verdictUnresolved},
		{"spread beyond bound, every run better", stat("lower", 10, 12, 8, 11, 9), stat("lower", 7, 7.5, 6, 7.2, 6.5), verdictBetter},
		{"spread beyond bound, every run worse, higher is better", stat("higher", 10, 12, 8, 11, 9), stat("higher", 7, 7.5, 6, 7.2, 6.5), verdictWorse},
	} {
		if got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v, want 3.5 31", q1, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"govisor/internal/vcpu.(*CPU).Run":       "vcpu",
		"govisor/internal/mem.(*GuestPhys).Read": "mem",
		"govisor/internal/dev.(*Bus).Write":      "other",
		"runtime.mallocgc":                       "runtime",
		"runtime/internal/atomic.Xadd":           "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"sort.Slice":                             "other",
		"main.(*epochTracer).Next":               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
