//go:build !race

package migrate

// raceScale divides the test-side guest-execution budgets (warm-up,
// post-migration verification, lockstep run-on) under the race detector,
// which costs ~10-20× per memory access: full size normally, scaled down so
// `go test -race ./...` stays inside the default per-package timeout. The
// migration engine's own stepping (round quanta, link cycle costs) is NOT
// scaled — the algorithms under test run their real schedules — and every
// differential comparison uses the same budget on both arms, so determinism
// assertions are unaffected.
const raceScale = 1

// raceEnabled gates the testing.AllocsPerRun assertions: the race detector's
// instrumentation allocates on its own account, so a zero-allocation claim
// is only checkable without it.
const raceEnabled = false
