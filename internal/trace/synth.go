package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"largewindow/internal/isa"
	"largewindow/internal/stats"
)

// SynthSpec parameterizes a synthetic workload — the paper-Table-2-style
// calibration dials expressed directly instead of through a kernel:
//
//	mlp      burst width of independent misses (1..8 parallel streams)
//	miss     target L1-D miss ratio (fraction of load units that stream
//	         cold memory; the rest hit a resident hot array)
//	entropy  conditional-branch entropy in bits: taken probability p
//	         solves H(p) = entropy on [0, 0.5], and outcomes come from an
//	         in-register xorshift PRNG, so they are temporally
//	         unpredictable and cost no memory traffic
//	ws       cold working-set size in bytes (power of two). This is the
//	         L2 dial: cold lines recur after exactly ws bytes of stream
//	         traffic, so ws ≤ 256K keeps refills in the L2 while larger
//	         working sets stream from memory
//	n        approximate dynamic instruction count
//	seed     PRNG seed for the cold/hot unit pattern and hot offsets
//
// The generated program is an outer loop over a block of `synthUnits`
// units. Each unit updates the PRNG, executes one conditional branch
// with P(taken) = p, and issues exactly mlp loads: a build-time-chosen
// `miss` fraction of units stream all mlp loads through the cold region
// on independent interleaved line-disjoint streams (the burst that sets
// MLP), the rest read the 512-byte hot array.
type SynthSpec struct {
	MLP     int
	Miss    float64
	Entropy float64
	WS      uint64
	N       uint64
	Seed    uint64
}

// Generator sizing constants.
const (
	synthUnits   = 128 // units per unrolled loop block (miss resolution 1/128)
	synthHotSize = 512 // hot array bytes; resident alongside streaming
	synthMaxMLP  = 8   // bounded by available stream registers (A0-A5, U0, U1)
)

var synthDefaults = SynthSpec{MLP: 2, Miss: 0.05, Entropy: 1, WS: 1 << 20, N: 200_000, Seed: 1}

// ParseSynth parses a "k=v,k=v" synthetic spec payload (the part after
// "synth:"). Unknown keys are rejected; omitted keys take defaults. ws
// accepts k/m suffixes (powers of two required).
func ParseSynth(payload string) (SynthSpec, error) {
	s := synthDefaults
	if strings.TrimSpace(payload) == "" {
		return SynthSpec{}, fmt.Errorf("synth ref needs parameters, e.g. synth:mlp=4,miss=0.1")
	}
	for _, kv := range strings.Split(payload, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return SynthSpec{}, fmt.Errorf("synth: malformed parameter %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "mlp":
			s.MLP, err = strconv.Atoi(val)
		case "miss":
			s.Miss, err = strconv.ParseFloat(val, 64)
		case "entropy":
			s.Entropy, err = strconv.ParseFloat(val, 64)
		case "ws":
			s.WS, err = parseSize(val)
		case "n":
			var v uint64
			v, err = strconv.ParseUint(val, 10, 64)
			s.N = v
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return SynthSpec{}, fmt.Errorf("synth: unknown parameter %q", key)
		}
		if err != nil {
			return SynthSpec{}, fmt.Errorf("synth: parameter %q: %v", kv, err)
		}
	}
	if err := s.Validate(); err != nil {
		return SynthSpec{}, err
	}
	return s, nil
}

func parseSize(v string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(v, "k"), strings.HasSuffix(v, "K"):
		mult, v = 1<<10, v[:len(v)-1]
	case strings.HasSuffix(v, "m"), strings.HasSuffix(v, "M"):
		mult, v = 1<<20, v[:len(v)-1]
	}
	n, err := strconv.ParseUint(v, 10, 64)
	return n * mult, err
}

// Validate checks the spec's dials are within the generator's envelope.
func (s SynthSpec) Validate() error {
	if s.MLP < 1 || s.MLP > synthMaxMLP {
		return fmt.Errorf("synth: mlp %d out of range [1, %d]", s.MLP, synthMaxMLP)
	}
	if s.Miss < 0 || s.Miss > 1 {
		return fmt.Errorf("synth: miss %g out of range [0, 1]", s.Miss)
	}
	if s.Entropy < 0 || s.Entropy > 1 {
		return fmt.Errorf("synth: entropy %g out of range [0, 1]", s.Entropy)
	}
	if s.WS < 1<<14 || s.WS > 1<<28 || s.WS&(s.WS-1) != 0 {
		return fmt.Errorf("synth: ws %d must be a power of two in [16K, 256M]", s.WS)
	}
	if s.N < 10_000 || s.N > 1<<31 {
		return fmt.Errorf("synth: n %d out of range [10000, 2^31]", s.N)
	}
	return nil
}

// Canonical renders the spec in the one canonical spelling (fixed key
// order, minimal float form). It is the content identity of the
// workload: "synth:" + Canonical() keys campaign cells, so any spelling
// of equal parameters shares cells and caches.
func (s SynthSpec) Canonical() string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("mlp=%d,miss=%s,entropy=%s,ws=%d,n=%d,seed=%d",
		s.MLP, g(s.Miss), g(s.Entropy), s.WS, s.N, s.Seed)
}

// Name is the short display name: "synth-" + a digest prefix of the
// canonical spec, so distinct specs never collide in report tables.
func (s SynthSpec) Name() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return "synth-" + hex.EncodeToString(sum[:])[:8]
}

// TakenProb returns the branch taken probability p ∈ [0, 0.5] solving
// the binary entropy equation H(p) = Entropy.
func (s SynthSpec) TakenProb() float64 {
	e := s.Entropy
	if e <= 0 {
		return 0
	}
	if e >= 1 {
		return 0.5
	}
	lo, hi := 0.0, 0.5
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if binEntropy(mid) < e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func binEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// splitmix64 drives build-time layout decisions; deterministic per seed.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	v := stats.SplitMix64(r.s)
	r.s += 0x9e3779b97f4a7c15 // the increment SplitMix64 adds
	return v
}

// Build generates the synthetic program. The same spec always builds
// the identical program — workload identity depends on it.
func (s SynthSpec) Build() (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &splitmix64{s: s.Seed ^ 0xda942042e4dd58b5}
	b := isa.NewBuilder(s.Name())

	// Hot array: small, initialized, resident. Cold region: ws bytes of
	// untouched address space — stream loads read zero pages, so the
	// trace/program image stays tiny regardless of ws.
	hotBase := b.Alloc(synthHotSize)
	for off := uint64(0); off < synthHotSize; off += 8 {
		b.SetWord(hotBase+off, r.next()|1)
	}
	coldBase := b.Alloc(s.WS + 4096)
	coldBase = (coldBase + 4095) &^ 4095

	// Exactly round(miss × units) cold units per block, pattern shuffled.
	coldUnits := int(math.Round(s.Miss * synthUnits))
	pattern := make([]bool, synthUnits)
	for i := 0; i < coldUnits; i++ {
		pattern[i] = true
	}
	for i := len(pattern) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		pattern[i], pattern[j] = pattern[j], pattern[i]
	}

	// Branch threshold: taken iff high 31 PRNG bits < c.
	p := s.TakenProb()
	c := int32(math.Min(math.Round(p*float64(1<<31)), float64(math.MaxInt32)))

	streamRegs := []isa.Reg{isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5, isa.U0, isa.U1}[:s.MLP]

	// Register plan: S0 cold base, S1 xorshift state, S2 hot base,
	// S4 ws mask, S5 outer counter, S6 branch threshold; T0-T5 scratch.
	b.LiAddr(isa.S0, coldBase)
	b.Li64(isa.S1, r.next()|1)
	b.LiAddr(isa.S2, hotBase)
	b.Li64(isa.S4, s.WS-1)
	b.Li(isa.S6, c)
	// Interleaved line-disjoint streams: stream j starts at line j and
	// advances mlp lines per cold unit, so stream j owns lines ≡ j (mod
	// mlp) and a line recurs after exactly ws bytes of total traffic.
	for j, reg := range streamRegs {
		b.Li(reg, int32(j*64))
	}

	// Size the outer loop to the target dynamic count. The block is
	// straight-line, so its length is known analytically: 10 fixed
	// instructions per unit (PRNG, branch sequence, filler) plus the load
	// bodies, plus the 2-instruction loop tail. Dynamic length differs
	// only by the skipped fillers (≈ p per unit) — n is approximate by
	// contract.
	blockLen := uint64(10*synthUnits + coldUnits*4*s.MLP + (synthUnits-coldUnits)*s.MLP + 2)
	iters := s.N / blockLen
	if iters == 0 {
		iters = 1
	}
	b.Li(isa.S5, int32(iters))
	top := b.Here()
	stride := int32(s.MLP * 64)
	for u := 0; u < synthUnits; u++ {
		// xorshift64: S1 ^= S1>>12; S1 ^= S1<<25; S1 ^= S1>>27.
		b.Srli(isa.T0, isa.S1, 12)
		b.Xor(isa.S1, isa.S1, isa.T0)
		b.Slli(isa.T0, isa.S1, 25)
		b.Xor(isa.S1, isa.S1, isa.T0)
		b.Srli(isa.T0, isa.S1, 27)
		b.Xor(isa.S1, isa.S1, isa.T0)
		// Entropy branch: taken with probability p, unpredictable.
		b.Srli(isa.T1, isa.S1, 33)
		b.Sltu(isa.T2, isa.T1, isa.S6)
		skip := b.NewLabel()
		b.Bne(isa.T2, isa.Zero, skip)
		b.Addi(isa.T3, isa.T3, 1)
		b.Bind(skip)
		if pattern[u] {
			// Cold unit: mlp independent stream loads (the MLP burst),
			// then advance and wrap every stream.
			for _, reg := range streamRegs {
				b.Add(isa.T4, isa.S0, reg)
				b.Ld(isa.T5, isa.T4, 0)
			}
			for _, reg := range streamRegs {
				b.Addi(reg, reg, stride)
				b.And(reg, reg, isa.S4)
			}
		} else {
			// Hot unit: mlp resident-array reads.
			for i := 0; i < s.MLP; i++ {
				off := int32(r.next() % (synthHotSize / 8) * 8)
				b.Ld(isa.T5, isa.S2, off)
			}
		}
	}
	b.Addi(isa.S5, isa.S5, -1)
	b.Bne(isa.S5, isa.Zero, top)
	b.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: building %s: %w", s.Canonical(), err)
	}
	return prog, nil
}
