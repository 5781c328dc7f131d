//go:build !race

package mmu

// raceEnabled gates the testing.AllocsPerRun assertions: the race detector's
// instrumentation allocates on its own account, so a zero-allocation claim
// is only checkable without it.
const raceEnabled = false
