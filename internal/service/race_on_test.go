//go:build race

package service

// raceEnabled reports that the race detector is compiled in: wall-clock
// budgets then measure the detector, not the code.
const raceEnabled = true
