package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestRegistryComplete checks the experiment index is well-formed.
func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Name == "" || e.Run == nil || e.Notes == "" {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"T1", "F7", "A4", "F15"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

// TestFastExperimentsProduceTables runs the sub-second experiments end to
// end and sanity-checks their tables (the heavyweight ones are exercised by
// the root bench harness and cmd/benchsuite).
func TestFastExperimentsProduceTables(t *testing.T) {
	fast := map[string]int{ // id → minimum rows
		"T2":  5,
		"F15": 4,
		"A2":  2,
		"A4":  8,
		"T14": 3,
		"F9":  4,
	}
	for _, e := range All() {
		rows, ok := fast[e.ID]
		if !ok {
			continue
		}
		table, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(table.Rows) < rows {
			t.Fatalf("%s: %d rows, want ≥ %d:\n%s", e.ID, len(table.Rows), rows, table.String())
		}
		if len(table.Header) == 0 {
			t.Fatalf("%s: no header", e.ID)
		}
		out := table.String()
		if !strings.Contains(out, table.Header[0]) {
			t.Fatalf("%s: header not rendered", e.ID)
		}
	}
}

// TestT1ShapeHolds asserts the headline T1 ordering as a regression guard:
// native ≈ hw ≪ para ≈ trap for privileged ops.
func TestT1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := T1PrivilegedOps()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: csr pair — columns: op, native, hw, para, trap.
	row := table.Rows[0]
	var vals [4]float64
	for i := 0; i < 4; i++ {
		var v float64
		if _, err := sscan(row[i+1], &v); err != nil {
			t.Fatalf("parsing %q: %v", row[i+1], err)
		}
		vals[i] = v
	}
	native, hw, para, trap := vals[0], vals[1], vals[2], vals[3]
	if hw > 3*native {
		t.Errorf("hw %v should be ≈ native %v", hw, native)
	}
	if para < 50*native || trap < 50*native {
		t.Errorf("deprivileged modes should be ≫ native: %v %v vs %v", para, trap, native)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// cell parses one numeric table cell.
func cell(t *testing.T, row []string, col int) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(row[col], &v); err != nil {
		t.Fatalf("parsing %q in row %v: %v", row[col], row, err)
	}
	return v
}

// TestF7ShapeHolds asserts F7's index row: pre-copy downtime grows
// strictly with dirty load, and post-copy downtime (the CPU state alone)
// is the same at every load.
func TestF7ShapeHolds(t *testing.T) {
	table, err := F7Migration()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: algorithm, dirty load, total, downtime, sent, rounds,
	// converged; rows run load by load, in light → heavy order.
	downtime := map[string][]float64{}
	for _, row := range table.Rows {
		downtime[row[0]] = append(downtime[row[0]], cell(t, row, 3))
	}
	pre, post := downtime["pre-copy"], downtime["post-copy"]
	if len(pre) != 3 || len(post) != 3 {
		t.Fatalf("want 3 loads per algorithm:\n%s", table)
	}
	if !(pre[0] < pre[1] && pre[1] < pre[2]) {
		t.Errorf("pre-copy downtime does not grow with dirty load: %v\n%s", pre, table)
	}
	if post[0] != post[1] || post[1] != post[2] {
		t.Errorf("post-copy downtime is not flat across loads: %v\n%s", post, table)
	}
}

// TestF8ShapeHolds asserts F8's index row: below the link rate the slow
// dirtier's rounds decay until pre-copy converges; above it the fast
// dirtier resends the same number of pages every round.
func TestF8ShapeHolds(t *testing.T) {
	table, err := F8PrecopyRounds()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: round, slow-dirtier pages, fast-dirtier pages; "-" once a
	// migration has finished.
	var slow, fast []float64
	for _, row := range table.Rows {
		if row[1] != "-" {
			slow = append(slow, cell(t, row, 1))
		}
		if row[2] != "-" {
			fast = append(fast, cell(t, row, 2))
		}
	}
	if len(slow) < 3 || len(fast) <= len(slow) {
		t.Fatalf("want a slow dirtier that converges before the fast one:\n%s", table)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i] >= slow[i-1] {
			t.Errorf("slow dirtier's round %d (%v pages) does not decay from %v\n%s", i, slow[i], slow[i-1], table)
		}
	}
	for i := 2; i < len(fast); i++ {
		if fast[i] != fast[1] {
			t.Errorf("fast dirtier's round %d sent %v pages, off its %v-page plateau\n%s", i, fast[i], fast[1], table)
		}
	}
}

// TestA3ShapeHolds asserts A3's index row at this load: each extra round
// the bound allows adds transfer time, and downtime never falls with it,
// because the hot guest's convergence stalls from the first round.
func TestA3ShapeHolds(t *testing.T) {
	table, err := A3PrecopyBounds()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: max rounds (ascending), total, downtime, sent.
	if len(table.Rows) < 3 {
		t.Fatalf("too few round bounds:\n%s", table)
	}
	for i := 1; i < len(table.Rows); i++ {
		prev, row := table.Rows[i-1], table.Rows[i]
		if cell(t, row, 1) <= cell(t, prev, 1) {
			t.Errorf("total does not grow from max rounds %s to %s\n%s", prev[0], row[0], table)
		}
		if cell(t, row, 2) < cell(t, prev, 2) {
			t.Errorf("downtime falls from max rounds %s to %s\n%s", prev[0], row[0], table)
		}
	}
}
