package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Verdicts of compare. A timed metric is better, worse, same or unresolved;
// an exact one (simulated outputs, counts, digests) is same or changed.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict compares the runs of one timed metric on two result files, A the
// parent and B the change:
//
//   - the run-to-run spread (interquartile distance over the median, the
//     wider of the two sides) is within the bound: the medians decide —
//     apart by more than the bound is better or worse, within it is same;
//   - the spread is wider than the bound: unresolved — not "unchanged" —
//     unless every run of one side beats every run of the other, which is
//     better or worse whatever the spread.
func verdict(a, b *endToEndStat) string {
	sign := 1.0 // after this, larger is worse
	if a.Better == "higher" {
		sign = -1
	}
	spread := func(s *endToEndStat) float64 {
		q1, q3 := quartiles(s.Runs)
		return (q3 - q1) / math.Abs(s.Median)
	}
	if math.Max(spread(a), spread(b)) <= a.Bound {
		switch change := sign * (b.Median - a.Median) / math.Abs(a.Median); {
		case change > a.Bound:
			return verdictWorse
		case change < -a.Bound:
			return verdictBetter
		}
		return verdictSame
	}
	worst, best := func(runs []float64) float64 {
		w := math.Inf(-1)
		for _, v := range runs {
			w = math.Max(w, sign*v)
		}
		return w
	}, func(runs []float64) float64 {
		b := math.Inf(1)
		for _, v := range runs {
			b = math.Min(b, sign*v)
		}
		return b
	}
	switch {
	case worst(b.Runs) < best(a.Runs):
		return verdictBetter
	case worst(a.Runs) < best(b.Runs):
		return verdictWorse
	}
	return verdictUnresolved
}

func loadResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &suiteResult{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareResults prints one verdict per (metric, workload) and returns how
// many of each were given. Timed per-layer metrics have a single value and
// no bound: their ratio is printed for reading, without a verdict.
func compareResults(a, b *suiteResult) map[string]int {
	tally := map[string]int{}
	if a.Seed != b.Seed || a.Quick != b.Quick || a.Reps != b.Reps {
		fmt.Printf("note: parameters differ (seed %d quick %v reps %d vs seed %d quick %v reps %d): the results are not comparable\n",
			a.Seed, a.Quick, a.Reps, b.Seed, b.Quick, b.Reps)
	}
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Printf("\n== %s\n", w)
		row := func(name, v string, x, y float64, unit string) {
			tally[v]++
			fmt.Printf("   %-38s %-10s %14.6g → %-14.6g %s\n", name, v, x, y, unit)
		}
		v := verdictSame
		if wa.Digest != wb.Digest {
			v = verdictChanged
		}
		tally[v]++
		fmt.Printf("   %-38s %-10s %s → %s\n", "sim_digest", v, wa.Digest, wb.Digest)
		for _, m := range suiteMetrics() {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			if sa == nil || sb == nil {
				continue
			}
			v := verdict(sa, sb)
			if sa.Exact {
				v = verdictSame
				if fmt.Sprint(sa.Runs) != fmt.Sprint(sb.Runs) {
					v = verdictChanged
				}
			}
			row(m.name, v, sa.Median, sb.Median, sa.Unit)
		}
		for _, m := range perLayer {
			la, oka := wa.PerLayer[m.name]
			lb, okb := wb.PerLayer[m.name]
			switch {
			case !oka || !okb:
			case la.Exact && la.Value == lb.Value:
				row(m.name, verdictSame, la.Value, lb.Value, la.Unit)
			case la.Exact:
				row(m.name, verdictChanged, la.Value, lb.Value, la.Unit)
			default:
				fmt.Printf("   %-38s %-10s %14.6g → %-14.6g %s\n", m.name,
					fmt.Sprintf("×%.3f", lb.Value/la.Value), la.Value, lb.Value, la.Unit)
			}
		}
	}
	fmt.Printf("\nverdicts:")
	for _, v := range []string{verdictBetter, verdictWorse, verdictSame, verdictUnresolved, verdictChanged} {
		fmt.Printf(" %d %s", tally[v], v)
	}
	fmt.Println()
	return tally
}

// compareMain is `benchmark compare A.json B.json`. It exits 1 when any
// metric is worse or any exact value changed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err == nil {
		var b *suiteResult
		if b, err = loadResult(args[1]); err == nil {
			tally := compareResults(a, b)
			if tally[verdictWorse]+tally[verdictChanged] > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
