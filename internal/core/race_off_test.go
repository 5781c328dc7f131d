//go:build !race

package core

// raceScale shrinks host-time budgets in tests that spin through tens of
// millions of guest cycles: full size normally, divided down under the race
// detector (which costs ~10-20× per memory access) so `go test -race ./...`
// stays inside a CI-friendly wall clock. Determinism assertions are
// unaffected — every compared run uses the same budget.
const raceScale = 1

// RaceEnabled gates the testing.AllocsPerRun assertions: the race
// detector's instrumentation allocates. Exported for the external test
// package (alloc_test.go).
const RaceEnabled = false
