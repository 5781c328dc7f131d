// Command benchmark is govisor's benchmark: five seconds-long workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// traced pass whose spans sum to the wall clock, and golden simulated
// digests. See README.md.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver contract)
//	go run ./benchmark [-seed N] [-quick] [-o FILE]                     the whole suite
//	go run ./benchmark compare A.json B.json                            verdict per (metric, workload)
//	go run ./benchmark -regolden                                        rewrite golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+") and print its result as the last line; empty runs the suite")
		seed     = flag.Uint64("seed", 1, "input seed: scales sizes by up to ±0.25 %, deals per-pair frame lengths, fleet VM order and micro-driver address streams")
		seconds  = flag.Float64("seconds", runSeconds, "with -workload: how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		quick    = flag.Bool("quick", false, "divide every size by 50: a smoke run, never evidence for a claim")
		out      = flag.String("o", "benchmark/out/result.json", "suite: result file")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files")
		regolden = flag.Bool("regolden", false, "suite: write the seed-1 digests of this build to benchmark/golden.json (full and quick size)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *workload == "" {
		// The suite's run length is part of the protocol, not a setting.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" || f.Name == "trace" {
				fmt.Fprintf(os.Stderr, "benchmark: -%s needs -workload\n", f.Name)
				os.Exit(2)
			}
		})
	}
	p := params{seed: *seed, quick: *quick}
	var err error
	switch {
	case *regolden:
		err = regoldenMain()
	case *workload == "":
		err = suiteMain(p, *out, *outDir)
	default:
		err = driverMain(*workload, p, *seconds, *trace != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runSeconds is run_seconds of BENCHMARK.json.
const runSeconds = 15

// resultPrefix marks the line carrying the full runResult, which the suite
// reads from its children.
const resultPrefix = "result: "

// driverMain is one run under the driver contract: every metric by name with
// its unit, then the full result, then — as the last line — the object with
// exactly the keys correct, attempted, failed and metrics, holding every
// end-to-end metric (trace off) or every per-layer metric (trace on).
func driverMain(workload string, p params, seconds float64, trace bool, outDir string) error {
	res, err := measure(workload, p, seconds, trace, outDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultPrefix, full)

	catalogue := endToEnd
	if trace {
		catalogue = perLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range catalogue {
		// A per-layer metric of a layer this workload does not exercise
		// reads 0.
		metrics[m.name] = metricValue{res.Metrics[m.name].Value, m.unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}
