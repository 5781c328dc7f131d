package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// suiteResult is the result file of one whole-suite run. A number without
// its parameters is not a result, so the file carries the host, the build,
// the seed and the frozen sizes beside every metric.
type suiteResult struct {
	// Claim is always null: the benchmark measures, it claims nothing. A
	// change that claims a gain names its metric and workload itself.
	Claim     *string                      `json:"claim"`
	Env       environment                  `json:"env"`
	Seed      uint64                       `json:"seed"`
	Quick     bool                         `json:"quick"`
	Reps      int                          `json:"reps"`
	Workers   int                          `json:"fleet_workers"`
	Sizes     map[string]map[string]uint64 `json:"sizes"`
	Workloads map[string]*workloadResult   `json:"workloads"`
}

type environment struct {
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	Digest    string                   `json:"sim_digest"`
	Attempted int                      `json:"ops_attempted"`
	Failed    int                      `json:"ops_failed"`
	Failures  []string                 `json:"failures,omitempty"`
	EndToEnd  map[string]*endToEndStat `json:"end_to_end"`
	PerLayer  map[string]layerStat     `json:"per_layer"`
}

// endToEndStat is one end-to-end metric over the measured reps.
type endToEndStat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Exact  bool      `json:"exact,omitempty"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Runs   []float64 `json:"runs"`
}

// layerStat is one per-layer metric of the traced pass.
type layerStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

func readEnvironment() environment {
	env := environment{
		HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runChild re-executes the benchmark for one (workload, rep), so heap state
// never leaks from one workload into the next. A suite child measures one
// unit (-seconds 0).
func runChild(workload string, p params, trace bool, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(p.seed, 10),
		"--seconds", "0", "--out", outDir, "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if p.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", workload, strings.Join(args, " "), err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), resultPrefix); ok {
			res := &runResult{}
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, fmt.Errorf("%s: child result: %w", workload, err)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no result", workload)
}

// runSuite runs everything through run, which measures one (workload,
// tracing) pair: reps interleaved round-robin across workloads (rep 1 of
// each, then rep 2, …) so machine drift hits all equally, tracing off; then
// one traced pass per workload.
func runSuite(p params, reps int, run func(workload string, trace bool) (*runResult, error)) (*suiteResult, error) {
	res := &suiteResult{Env: readEnvironment(), Seed: p.seed, Quick: p.quick, Reps: reps, Workers: fleetWorkers,
		Sizes: map[string]map[string]uint64{}, Workloads: map[string]*workloadResult{}}
	for _, w := range workloadNames {
		res.Sizes[w] = sizes(w)
		res.Workloads[w] = &workloadResult{EndToEnd: map[string]*endToEndStat{}, PerLayer: map[string]layerStat{}}
	}
	for rep := 1; rep <= reps; rep++ {
		for _, w := range workloadNames {
			fmt.Fprintf(os.Stderr, "rep %d/%d %s\n", rep, reps, w)
			r, err := run(w, false)
			if err != nil {
				return nil, err
			}
			wr := res.Workloads[w]
			wr.absorb(r, fmt.Sprintf("rep %d", rep))
			r.Metrics["sim_cycles"] = metricValue{Value: float64(r.SimCycles)}
			r.Metrics["ops_failed_share"] = metricValue{Value: float64(r.Failed) / float64(r.Attempted)}
			for _, m := range suiteMetrics() {
				if !m.appliesTo(w) {
					continue
				}
				st := wr.EndToEnd[m.name]
				if st == nil {
					st = &endToEndStat{Unit: m.unit, Better: m.better, Bound: m.bound, Exact: m.exact}
					wr.EndToEnd[m.name] = st
				}
				st.Runs = append(st.Runs, r.Metrics[m.name].Value)
			}
		}
	}
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "traced pass %s\n", w)
		r, err := run(w, true)
		if err != nil {
			return nil, err
		}
		wr := res.Workloads[w]
		wr.absorb(r, "traced pass")
		for _, m := range perLayer {
			if v, ok := r.Metrics[m.name]; ok {
				wr.PerLayer[m.name] = layerStat{Value: v.Value, Unit: m.unit, Exact: m.exact}
			}
		}
		for _, st := range wr.EndToEnd {
			sorted := append([]float64(nil), st.Runs...)
			sort.Float64s(sorted)
			st.Median, st.Min, st.Max, st.N = median(sorted), sorted[0], sorted[len(sorted)-1], len(sorted)
		}
	}
	return res, nil
}

// suiteMetrics are the end-to-end metrics of a suite result.
func suiteMetrics() []metricDef { return slices.Concat(endToEnd, suiteOnly) }

// suiteReps is the number of measured reps per workload in the suite.
const suiteReps = 5

// suiteMain is the one command that runs everything, prints every metric by
// name with its unit and writes the result file. The runner re-executes
// itself once per (workload, rep).
func suiteMain(p params, outFile, outDir string) error {
	res, err := runSuite(p, suiteReps, func(w string, trace bool) (*runResult, error) {
		return runChild(w, p, trace, outDir)
	})
	if err != nil {
		return err
	}
	res.print()
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s (traces in %s)\n", outFile, outDir)
	for _, w := range workloadNames {
		if res.Workloads[w].Failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w, res.Workloads[w].Failed, res.Workloads[w].Attempted)
		}
	}
	return nil
}

// absorb folds one child's operations into the workload's totals. Every
// child must produce the first child's digest: one more operation each.
func (wr *workloadResult) absorb(r *runResult, what string) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.Failures = append(wr.Failures, r.Failures...)
	if wr.Digest == "" {
		wr.Digest = r.Digest
		return
	}
	wr.Attempted++
	if r.Digest != wr.Digest {
		wr.Failed++
		wr.Failures = append(wr.Failures, fmt.Sprintf("%s: sim_digest %s, want %s", what, r.Digest, wr.Digest))
	}
}

// print writes every metric by name with its unit.
func (res *suiteResult) print() {
	e := res.Env
	fmt.Printf("govisor benchmark: seed %d, quick %v, %d reps, fleet workers %d\n", res.Seed, res.Quick, res.Reps, res.Workers)
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, %s, commit %s\n", e.HostCores, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit)
	for _, w := range workloadNames {
		wr := res.Workloads[w]
		fmt.Printf("\n== %s: sim_digest %s, %d/%d operations failed\n", w, wr.Digest, wr.Failed, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Println("   FAILED:", f)
		}
		fmt.Printf("   %-38s %14s %14s %14s  n  unit (better, bound)\n", "end to end", "median", "min", "max")
		for _, m := range suiteMetrics() {
			if st := wr.EndToEnd[m.name]; st != nil {
				fmt.Printf("   %-38s %14.6g %14.6g %14.6g %2d  %s (%s, %g%%)\n",
					m.name, st.Median, st.Min, st.Max, st.N, st.Unit, st.Better, st.Bound*100)
			}
		}
		fmt.Printf("   %-38s %14s\n", "per layer (traced pass)", "value")
		for _, m := range perLayer {
			if st, ok := wr.PerLayer[m.name]; ok {
				fmt.Printf("   %-38s %14.6g  %s\n", m.name, st.Value, st.Unit)
			}
		}
	}
}

// regoldenMain rewrites benchmark/golden.json with this build's seed-1
// digests at full and quick size. Run it from the repository root, and only
// for a change that is meant to alter simulated behaviour.
func regoldenMain() error {
	g := golden{Full: map[string]string{}, Quick: map[string]string{}}
	for _, quick := range []bool{false, true} {
		for _, w := range workloadNames {
			fmt.Fprintf(os.Stderr, "regolden %s quick=%v\n", w, quick)
			u, err := runUnit(w, params{seed: 1, quick: quick}, fleetWorkers, nil)
			if err != nil {
				return err
			}
			if len(u.failures) != 0 {
				return fmt.Errorf("%s: %s", w, strings.Join(u.failures, "; "))
			}
			g.size(quick)[w] = fmt.Sprintf("%016x", u.digest)
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden.json"), append(data, '\n'), 0o644)
}
