package model

import (
	"math"
	"sort"

	"largewindow/internal/core"
)

// Prediction is the interval model's closed-form cycle estimate for one
// (profile, core.Config) pair, broken down by penalty class so reports
// (wibsim -predict) can show where the cycles go.
type Prediction struct {
	// Cycles is the predicted execution time; IPC = N/Cycles.
	Cycles float64 `json:"cycles"`
	IPC    float64 `json:"ipc"`
	// Weff is the effective scheduling window the config was evaluated at.
	Weff float64 `json:"w_eff"`

	// Base is the steady-state dispatch term N/min(D, ILP(W)).
	Base float64 `json:"base"`
	// LongMiss is the serialized long-miss stall term; SerialMisses is the
	// epoch count it charges (after any bit-vector capacity cap).
	LongMiss     float64 `json:"long_miss"`
	SerialMisses float64 `json:"serial_misses"`
	// L2Hit is the partially-hidden L1D-miss/L2-hit term.
	L2Hit float64 `json:"l2_hit"`
	// Branch covers direction mispredicts and BTB misfetches.
	Branch float64 `json:"branch"`
	// Fetch covers instruction-cache misses.
	Fetch float64 `json:"fetch"`
	// TLB covers D-TLB refill penalties.
	TLB float64 `json:"tlb"`
	// Ramp is the post-event window refill correction ((D-1)/2D per event).
	Ramp float64 `json:"ramp"`

	// Calibrated reports whether a per-(bench,family) anchor scale was
	// applied to Cycles/IPC.
	Calibrated bool `json:"calibrated,omitempty"`
}

// hideWindow sets how quickly a growing instruction window hides L1D
// misses that hit in the L2: a window of hideWindow instructions hides
// half the L2 hit latency. Tuned against the detailed core on the
// 18-kernel suite (TestModelCrossValidation).
const hideWindow = 48.0

// mispredictDrain is the extra cost of a direction mispredict beyond the
// configured front-end redirect penalty: the instructions past the branch
// in the window are squashed and the schedule restarts. Tuned with
// hideWindow.
const mispredictDrain = 3.0

// EffectiveWindow returns the scheduling scope the model evaluates a
// configuration at: the WIB capacity when a WIB is present (blocked
// chains move aside, so the active list keeps filling), otherwise the
// smaller of the active list and the total issue-queue capacity —
// whichever structure fills first stalls a conventional core.
func EffectiveWindow(cfg core.Config) float64 {
	if cfg.WIB != nil {
		return float64(cfg.WIB.Entries)
	}
	w := cfg.ActiveList
	if iq := cfg.IntIQSize + cfg.FPIQSize; iq < w {
		w = iq
	}
	if w < 1 {
		w = 1
	}
	return float64(w)
}

// Family buckets a configuration for calibration: conventional cores and
// WIB cores miss the model in systematically different ways (the WIB adds
// reinsertion latency the closed form does not see), so anchor scales are
// learned per family.
func Family(cfg core.Config) string {
	if cfg.WIB != nil {
		return "wib"
	}
	return "conv"
}

// Predict evaluates the interval model for cfg against profile p. The
// estimate is monotone the way the hardware is: non-increasing in the
// effective window size and non-decreasing in the memory latency.
func Predict(p *Profile, cfg core.Config) Prediction {
	n := float64(p.N)
	d := float64(cfg.DecodeWidth)
	if d < 1 {
		d = 1
	}
	w := EffectiveWindow(cfg)

	pr := Prediction{Weff: w}

	// Steady-state dispatch: the window exposes ILP(W); the pipeline
	// sustains at most D per cycle.
	ipc := p.ILPAt(w)
	if ipc > d {
		ipc = d
	}
	pr.Base = n / ipc

	// Serialized long misses: epochs whose full memory latency is exposed.
	// A WIB with too few bit-vectors cannot keep enough misses in flight,
	// flooring the epoch count at LongLoadMisses/BitVectors.
	mser := p.SerialAt(w)
	if cfg.WIB != nil && cfg.WIB.BitVectors > 0 {
		if floor := float64(p.LongLoadMisses) / float64(cfg.WIB.BitVectors); floor > mser {
			mser = floor
		}
	}
	pr.SerialMisses = mser
	memLat := float64(cfg.Mem.L2Latency + cfg.Mem.MemLatency)
	pr.LongMiss = mser * memLat

	// L1D misses that hit in the L2: a larger window hides more of the
	// L2 hit latency under independent work.
	l2hits := float64(p.L1DMisses - p.DataMemMisses)
	pr.L2Hit = l2hits * float64(cfg.Mem.L2Latency) * hideWindow / (hideWindow + w)

	// Branch events: each direction mispredict pays the front-end redirect
	// plus a schedule-restart drain; each BTB misfetch pays the (much
	// smaller) misfetch bubble.
	pr.Branch = float64(p.Mispredicts)*(float64(cfg.MispredictPenalty)+mispredictDrain) +
		float64(p.BTBMisses)*float64(cfg.MisfetchPenalty)

	// Instruction fetch misses stall the front end for the full fill.
	l1iL2 := float64(p.L1IMisses - p.L1IMemMisses)
	pr.Fetch = l1iL2*float64(cfg.Mem.L2Latency) + float64(p.L1IMemMisses)*memLat

	if !cfg.Mem.DisableTLB {
		pr.TLB = float64(p.TLBMisses) * float64(cfg.Mem.TLBPenalty)
	}

	// Window refill ramp after every serializing event (Charm's
	// mech_outoforder correction): (D-1)/2D cycles per event.
	events := mser + float64(p.Mispredicts) + float64(p.L1IMisses)
	pr.Ramp = events * (d - 1) / (2 * d)

	pr.Cycles = pr.Base + pr.LongMiss + pr.L2Hit + pr.Branch + pr.Fetch + pr.TLB + pr.Ramp
	if pr.Cycles < 1 {
		pr.Cycles = 1
	}
	pr.IPC = n / pr.Cycles
	return pr
}

// Calibration learns a multiplicative correction per (benchmark, config
// family) from anchor cells the detailed core actually simulated. Each
// anchor contributes a (log W, log measured/predicted) knot; predictions
// at other windows interpolate the log-ratio piecewise-linearly in log W,
// clamped beyond the extreme anchors. Anchoring a sweep at its window
// extremes therefore corrects not just the model's level but the shape
// of its window dependence, per benchmark.
type Calibration struct {
	knots map[string][]calKnot // bench \x00 family -> sorted by logW
}

type calKnot struct {
	logW, logRatio float64
	n              int // observations merged into this knot
}

// NewCalibration returns an empty calibration (scale 1 everywhere).
func NewCalibration() *Calibration {
	return &Calibration{knots: map[string][]calKnot{}}
}

func calKey(bench, family string) string { return bench + "\x00" + family }

// Observe folds one anchor measurement into the calibration.
func (c *Calibration) Observe(bench string, cfg core.Config, raw Prediction, measuredCycles uint64) {
	if measuredCycles == 0 || raw.Cycles <= 0 {
		return
	}
	k := calKey(bench, Family(cfg))
	lw := math.Log2(EffectiveWindow(cfg))
	lr := math.Log(float64(measuredCycles) / raw.Cycles)
	ks := c.knots[k]
	for i := range ks {
		if ks[i].logW == lw { // same window observed again: average ratios
			ks[i].logRatio = (ks[i].logRatio*float64(ks[i].n) + lr) / float64(ks[i].n+1)
			ks[i].n++
			return
		}
	}
	ks = append(ks, calKnot{logW: lw, logRatio: lr, n: 1})
	sort.Slice(ks, func(a, b int) bool { return ks[a].logW < ks[b].logW })
	c.knots[k] = ks
}

// logRatioAt interpolates a knot list at logW, clamped at the ends.
func logRatioAt(ks []calKnot, lw float64) float64 {
	if len(ks) == 0 {
		return 0
	}
	if lw <= ks[0].logW {
		return ks[0].logRatio
	}
	last := len(ks) - 1
	if lw >= ks[last].logW {
		return ks[last].logRatio
	}
	for i := 1; i <= last; i++ {
		if lw <= ks[i].logW {
			t := (lw - ks[i-1].logW) / (ks[i].logW - ks[i-1].logW)
			return ks[i-1].logRatio + t*(ks[i].logRatio-ks[i-1].logRatio)
		}
	}
	return ks[last].logRatio
}

// Scale returns the learned multiplier for (bench, family) at effective
// window w, falling back to the family-wide mean across benchmarks when
// the benchmark has no anchors of its own, then to 1.
func (c *Calibration) Scale(bench, family string, w float64) float64 {
	lw := math.Log2(math.Max(w, 1))
	if ks := c.knots[calKey(bench, family)]; len(ks) > 0 {
		return math.Exp(logRatioAt(ks, lw))
	}
	// Family-wide fallback: mean log-ratio at this window across the
	// benchmarks that do have anchors.
	suffix := "\x00" + family
	keys := make([]string, 0, len(c.knots))
	for k := range c.knots {
		if len(k) >= len(suffix) && k[len(k)-len(suffix):] == suffix {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 1
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += logRatioAt(c.knots[k], lw)
	}
	return math.Exp(sum / float64(len(keys)))
}

// Apply returns raw with the (bench, family) anchor correction folded
// into Cycles and IPC.
func (c *Calibration) Apply(bench string, cfg core.Config, raw Prediction) Prediction {
	s := c.Scale(bench, Family(cfg), raw.Weff)
	if s == 1 {
		return raw
	}
	out := raw
	out.Cycles = raw.Cycles * s
	out.IPC = raw.IPC / s
	out.Calibrated = true
	return out
}
