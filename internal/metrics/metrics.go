// Package metrics provides the histograms, fairness index and tables the
// experiments report. Everything is plain in-process state — benchmarks
// snapshot values between phases.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates samples and reports order statistics. It stores raw
// samples (experiments are bounded) so percentiles are exact.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the total of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 when
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Min returns the smallest sample.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Stddev returns the population standard deviation.
func (h *Histogram) Stddev() float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() { h.samples = h.samples[:0]; h.sum = 0; h.sorted = false }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// JainIndex computes Jain's fairness index over per-party allocations:
// (Σx)² / (n·Σx²). 1.0 is perfectly fair; 1/n is maximally unfair.
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 0
	}
	var sum, sq float64
	for _, s := range shares {
		sum += s
		sq += s * s
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(shares)) * sq)
}

// Table renders rows of columns with aligned widths — the benchsuite's
// output format for every reproduced table and figure.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row of Sprintf-formatted cells given as (format, value)
// alternation convenience: each argument is rendered with %v.
func (t *Table) AddRowv(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
