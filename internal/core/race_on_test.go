//go:build race

package core

// raceScale under the race detector: see race_off_test.go.
const raceScale = 8

// RaceEnabled under the race detector: see race_off_test.go.
const RaceEnabled = true
