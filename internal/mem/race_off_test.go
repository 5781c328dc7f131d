//go:build !race

package mem

// raceEnabled gates the testing.AllocsPerRun assertions: the race detector's
// instrumentation allocates on its own account, so a zero-allocation claim
// is only checkable without it.
const raceEnabled = false
