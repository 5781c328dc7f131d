//go:build race

package migrate

// raceScale and raceEnabled under the race detector: see race_off_test.go.
const (
	raceScale   = 8
	raceEnabled = true
)
