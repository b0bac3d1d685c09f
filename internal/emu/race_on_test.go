//go:build race

package emu

// raceEnabled reports that the race detector is compiled in: a
// single-goroutine differential pass then measures the detector, not
// the code.
const raceEnabled = true
