//go:build race

package mmu

// raceEnabled under the race detector: see race_off_test.go.
const raceEnabled = true
