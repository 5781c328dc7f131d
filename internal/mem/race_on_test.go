//go:build race

package mem

// raceEnabled under the race detector: see race_off_test.go.
const raceEnabled = true
