// Package sample implements SMARTS-style statistical sampling for the
// simulator (Wunderlich et al., ISCA'03; the gem5 functional↔detailed
// switching discipline): the program is divided into fixed periods, each
// period ends with a short detailed window (optional detailed warmup W
// followed by a measured unit U), and the functional emulator (~200M
// instrs/s bare, ~75M streaming into a cache hierarchy and predictor)
// carries the program between windows while feeding the warm sinks so
// caches, TLBs, and the branch predictor stay functionally warm.
// Per-interval IPCs aggregate into a point estimate with a Student-t 95%
// confidence interval (internal/stats).
//
// A Plan is pure data — it rides inside campaign cells (folded into the
// content-addressed cell ID), records, and the service protocol — and
// Run executes one plan against one configuration.
package sample

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"largewindow/internal/stats"
)

// Plan describes one sampling regime. The program's first
// Intervals×Period instructions are tiled into periods; each period ends
// with a detailed window of Warmup+Length instructions (warmup trains the
// pipeline-adjacent state the warm rings cannot, e.g. in-flight queues;
// only the final Length instructions are measured). With Random set, the
// detailed window instead lands at a seeded pseudo-random offset inside
// each period — the classic guard against periodicity bias.
type Plan struct {
	// Intervals is the number of measured intervals (N).
	Intervals int `json:"intervals"`
	// Period is the sampling period in instructions (P). One detailed
	// window is taken per period; the rest of the period runs on the
	// functional emulator with warm streaming. Zero means auto: the period
	// is derived from the program's actual length at run time (Resolve), so
	// every program gets exactly Intervals samples spread across its whole
	// execution — the SMARTS discipline of fixing the sample SIZE, which
	// drives the confidence interval, rather than the sample spacing.
	Period uint64 `json:"period"`
	// Length is the measured unit size in instructions (U).
	Length uint64 `json:"length"`
	// Warmup is the detailed (non-measured) warmup preceding each
	// measured unit, in instructions (W).
	Warmup uint64 `json:"warmup,omitempty"`
	// Seed drives the random offsets (Random) — same seed, same windows.
	Seed uint64 `json:"seed,omitempty"`
	// Random places each detailed window at a seeded random offset within
	// its period instead of at the period's end.
	Random bool `json:"random,omitempty"`
}

// Validate reports whether the plan is executable.
func (p Plan) Validate() error {
	if p.Intervals <= 0 {
		return fmt.Errorf("sample: plan needs at least one interval (got %d)", p.Intervals)
	}
	if p.Length == 0 {
		return fmt.Errorf("sample: measured unit length must be positive")
	}
	if p.Period != 0 && p.Period < p.Warmup+p.Length {
		return fmt.Errorf("sample: period %d shorter than warmup %d + unit %d",
			p.Period, p.Warmup, p.Length)
	}
	return nil
}

// Resolved reports whether the plan has a concrete period (auto-period
// plans must be Resolved against a program length before running).
func (p Plan) Resolved() bool { return p.Period != 0 }

// Resolve turns an auto-period plan into a concrete one for a program of
// the given total instruction count: the period becomes total/Intervals,
// spreading exactly Intervals detailed windows across the whole
// execution. When the program is too short to fit Intervals windows the
// interval count is reduced (never below one). A plan with an explicit
// period resolves to itself.
func (p Plan) Resolve(total uint64) Plan {
	if p.Period != 0 {
		return p
	}
	out := p
	if max := total / p.Detailed(); uint64(out.Intervals) > max {
		out.Intervals = int(max)
		if out.Intervals == 0 {
			out.Intervals = 1
		}
	}
	out.Period = total / uint64(out.Intervals)
	if out.Period < p.Detailed() {
		out.Period = p.Detailed()
	}
	return out
}

// Detailed returns the detailed-window size W+U in instructions.
func (p Plan) Detailed() uint64 { return p.Warmup + p.Length }

// Offset returns the absolute instruction index at which interval k's
// detailed window (warmup first) begins. Systematic plans place the
// window at the end of each period, so functional warming covers the
// whole period prefix and measurement ends exactly on the period
// boundary; Random plans draw a seeded per-interval offset instead.
func (p Plan) Offset(k int) uint64 {
	base := uint64(k) * p.Period
	slack := p.Period - p.Detailed()
	if !p.Random {
		return base + slack
	}
	return base + stats.SplitMix64(p.Seed+uint64(k)+1)%(slack+1)
}

// String renders the plan in its spec form, parseable by Parse.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", p.Intervals)
	if p.Period != 0 {
		fmt.Fprintf(&b, ",period=%d", p.Period)
	}
	fmt.Fprintf(&b, ",len=%d", p.Length)
	if p.Warmup > 0 {
		fmt.Fprintf(&b, ",warm=%d", p.Warmup)
	}
	if p.Seed != 0 {
		fmt.Fprintf(&b, ",seed=%d", p.Seed)
	}
	if p.Random {
		b.WriteString(",random")
	}
	return b.String()
}

// Parse decodes a plan spec of comma-separated key=value fields:
//
//	n=10,period=30000,len=1000,warm=500,seed=7,random
//
// n and len are required; period defaults to 0 (auto: derived from the
// program length so every program gets exactly n samples); warm and seed
// default to 0; the bare flag "random" enables random offsets. The spec
// form is what the CLIs accept (`wibsim -sample`, `experiments -sample`).
func Parse(spec string) (Plan, error) {
	var p Plan
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		if seen[key] {
			return Plan{}, fmt.Errorf("sample: duplicate field %q in spec %q", key, spec)
		}
		seen[key] = true
		if key == "random" {
			if hasVal {
				return Plan{}, fmt.Errorf("sample: %q takes no value", key)
			}
			p.Random = true
			continue
		}
		if !hasVal {
			return Plan{}, fmt.Errorf("sample: field %q needs a value (spec %q)", key, spec)
		}
		u, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("sample: field %q: %v", key, err)
		}
		switch key {
		case "n":
			p.Intervals = int(u)
		case "period":
			p.Period = u
		case "len":
			p.Length = u
		case "warm":
			p.Warmup = u
		case "seed":
			p.Seed = u
		default:
			keys := []string{"n", "period", "len", "warm", "seed", "random"}
			sort.Strings(keys)
			return Plan{}, fmt.Errorf("sample: unknown field %q (valid: %s)", key, strings.Join(keys, ", "))
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
