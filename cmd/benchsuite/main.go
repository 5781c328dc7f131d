// Benchsuite regenerates every table and figure of the reproduced
// evaluation (see EXPERIMENTS.md) and prints them in order. Pass experiment
// IDs (e.g. "T1 F7 A2") to run a subset; -list shows what exists. Unknown
// IDs are an error, not a silent no-op.
//
// Performance is measured by the harness in benchmark/ (go run ./benchmark),
// not here: these tables reproduce the paper's shapes. To profile the
// simulator, run one workload traced: go run ./benchmark -workload W -trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"govisor/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	valid := map[string]bool{}
	for _, e := range experiments {
		valid[e.ID] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, arg := range flag.Args() {
		id := strings.ToUpper(arg)
		if !valid[id] {
			unknown = append(unknown, arg)
			continue
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		ids := make([]string, 0, len(valid))
		for id := range valid {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment(s): %s\nvalid IDs: %s\n",
			strings.Join(unknown, " "), strings.Join(ids, " "))
		os.Exit(2)
	}

	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("══ %s — %s ══\n", e.ID, e.Name)
		fmt.Printf("expected shape: %s\n\n", e.Notes)
		start := time.Now()
		table, err := e.Run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Printf("FAILED: %v\n\n", err)
			failed++
			continue
		}
		fmt.Print(table.String())
		fmt.Printf("(%.1fs)\n\n", elapsed.Seconds())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiments failed\n", failed)
		os.Exit(1)
	}
}
