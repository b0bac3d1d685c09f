package main

import "time"

// The sandbox this benchmark runs in changes speed for minutes at a time:
// in one two-set campaign of the same code, seven minutes of the second
// set ran fig4-base, fig4-wib and emu-ff 25-35% slower than the first,
// more than any bound the contract allows. Repeating passes inside a run
// cannot see that. So the set-ups and every timed pass are bracketed by a
// calibration loop of fixed work that calls nothing of the repository
// (71 ms each time), and the end-to-end times are reported at reference
// speed: the measured time divided by the host's slowdown beside it. A
// change to the simulator does not move the calibration loop, so it moves
// the reported time in full; a slow phase of the host moves both and
// cancels.
//
// The loop's shape was chosen by what followed the workloads' own drift
// over a 120-run campaign. A table inside the second-level cache, or the
// fastest of several short slices, read steadier (2% against 5%) but
// stayed at 1.0 through an hour in which every workload ran 9-20% slow;
// a 32 MB table read 30% apart between processes.
const (
	calibOps     = 6 << 20
	calibEntries = 1 << 20 // 4 MB of uint32: around the second-level cache's size, as a simulator's tables are
	// calibNominal is what calibrate took on the sandbox the baseline was
	// recorded on, when the baseline was recorded: there and then,
	// reference speed was the measured speed.
	calibNominal = 0.0710
)

// calibTable is one cycle through all its entries (Sattolo), so a chase
// through it is a chain of dependent loads that never settles in a loop
// shorter than the table.
var calibTable = func() []uint32 {
	t := make([]uint32, calibEntries)
	for i := range t {
		t[i] = uint32(i)
	}
	r := rng{x: 0x5eed}
	for i := len(t) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

var calibSink uint64

// calibrate times a fixed piece of simulator-like work: an interpreter
// loop whose four-way dispatch the branch predictor cannot learn, one arm
// of it a dependent load into calibTable. It returns seconds.
func calibrate() float64 {
	t0 := time.Now()
	x, acc, idx := uint64(1), uint64(0), uint32(0)
	for i := 0; i < calibOps; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z ^= z >> 27
		switch z & 3 {
		case 0:
			acc += z >> 7
		case 1:
			acc ^= z << 3
		case 2:
			idx = calibTable[idx]
			acc += uint64(idx)
		default:
			if acc&1 == 0 {
				acc = acc*3 + 1
			} else {
				acc >>= 1
			}
		}
	}
	calibSink += acc
	return time.Since(t0).Seconds()
}

// slowdown turns the two calibrations around a measurement into the
// host's slowdown beside it: 1 at reference speed, above 1 when slower.
func slowdown(before, after float64) float64 { return (before + after) / 2 / calibNominal }
