// Package workload provides the benchmark kernels the evaluation runs:
// synthetic stand-ins for the paper's SPEC CINT2000, SPEC CFP2000, and
// Olden programs (see DESIGN.md §2 for the substitution rationale). Each
// kernel is written against the isa.Builder API and reproduces the
// characteristics that drive the paper's results for its namesake —
// data-cache miss ratios, memory-level parallelism, branch behaviour, and
// instruction mix. The Olden kernels are faithful reimplementations of
// the original algorithms; the SPEC kernels are behavioural analogues.
//
// Kernels are parameterized by Scale: ScaleTest keeps runs tiny for unit
// and golden-model tests; ScaleRun sizes working sets against the paper's
// 32KB L1 / 256KB L2 hierarchy for the experiment harness; ScaleFull
// approaches the paper's own footprints (slow — minutes per run).
package workload

import (
	"fmt"
	"sort"

	"largewindow/internal/isa"
)

// Suite identifies the benchmark suite a kernel stands in for.
type Suite int

// Benchmark suites used in the paper's evaluation, plus SuiteExternal
// for workloads that do not stand in for a paper program (trace files,
// synthetic specs).
const (
	SuiteInt Suite = iota
	SuiteFP
	SuiteOlden
	SuiteExternal
)

func (s Suite) String() string {
	switch s {
	case SuiteInt:
		return "SPEC-INT"
	case SuiteFP:
		return "SPEC-FP"
	case SuiteOlden:
		return "Olden"
	case SuiteExternal:
		return "external"
	default:
		return fmt.Sprintf("suite%d", int(s))
	}
}

// ParseSuite is the inverse of Suite.String, used when decoding
// persisted campaign records.
func ParseSuite(s string) (Suite, bool) {
	switch s {
	case "SPEC-INT":
		return SuiteInt, true
	case "SPEC-FP":
		return SuiteFP, true
	case "Olden":
		return SuiteOlden, true
	case "external":
		return SuiteExternal, true
	default:
		return 0, false
	}
}

// Scale selects the working-set / iteration sizing of a kernel.
type Scale int

// Kernel scales.
const (
	ScaleTest Scale = iota // seconds of simulation, for tests
	ScaleRun               // experiment harness default
	ScaleFull              // closest to the paper's footprints
)

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleRun:
		return "run"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("scale%d", int(s))
	}
}

// ParseScale is the inverse of Scale.String, used by every CLI's -scale
// flag. A name that is not a scale is an error naming the valid ones —
// never a silent default.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "test":
		return ScaleTest, nil
	case "run":
		return ScaleRun, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (valid: test, run, full)", s)
	}
}

// Spec describes one benchmark kernel. Omitted marks kernels that are
// registered (resolvable through Get and `bench:` refs) but excluded
// from the paper's evaluation set (All/BySuite/Names) — the analogue of
// the paper omitting a SPEC program from its tables.
type Spec struct {
	Name    string
	Suite   Suite
	Build   func(Scale) *isa.Program
	Omitted bool
}

var registry = map[string]Spec{}

func register(name string, suite Suite, build func(Scale) *isa.Program) {
	registry[name] = Spec{Name: name, Suite: suite, Build: build}
}

// All returns every evaluation kernel, ordered as the paper's tables
// list them (integer, floating point, Olden; alphabetical within
// suite). Omitted kernels are filtered out; they remain reachable by
// name through Get.
func All() []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Omitted {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Get looks a kernel up by name. Both evaluation and omitted kernels
// resolve; use Spec.Omitted (or All) to distinguish.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns all evaluation kernel names in table order.
func Names() []string {
	var out []string
	for _, s := range All() {
		out = append(out, s.Name)
	}
	return out
}

// prng is a deterministic xorshift64* generator used to lay out data
// structures. Kernels must be bit-reproducible across runs.
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545f4914f6cdd1d
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) f64() float64 { return float64(p.next()%(1<<20)) / float64(1<<20) }

// shuffle permutes idx in place.
func (p *prng) shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := p.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// pick3 returns scale-dependent sizing.
func pick3[T any](s Scale, test, run, full T) T {
	switch s {
	case ScaleTest:
		return test
	case ScaleFull:
		return full
	default:
		return run
	}
}
