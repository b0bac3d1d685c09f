package model

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"largewindow/internal/core"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

// ExecFunc simulates one (config, benchmark) cell on the detailed core
// and returns its measured cycles and IPC. Explore calls it from several
// goroutines at once, so it must be safe for concurrent use. The harness
// supplies one that routes through the campaign engine, so simulated
// cells are cached, content-addressed, and resumable like any other sweep
// cell.
type ExecFunc func(cfg core.Config, bench string) (cycles uint64, ipc float64, err error)

// Space describes a model-pruned design-space exploration.
type Space struct {
	// Configs and Benches span the sweep grid (Configs must carry the
	// names the report keys on).
	Configs []core.Config
	Benches []string
	// Scale labels the workload build passed to the profiler and exec.
	Scale workload.Scale
	// ProfileInstr bounds each profiling pass (0 = run to halt). Profile
	// the same budget the detailed cells run, or the model predicts a
	// different region than the simulator measures.
	ProfileInstr uint64
	// TopK is how many configs (by calibrated predicted suite IPC) are
	// simulated in full. 0 defaults to 3.
	TopK int
	// AuditFrac is the fraction of pruned cells simulated anyway to
	// measure live model error. 0 defaults to 0.1; negative disables.
	AuditFrac float64
	// Seed makes the audit slice deterministic, so a resumed exploration
	// re-selects the same cells and finds them all cached.
	Seed uint64
	// Exec simulates one cell; required. Up to runtime.GOMAXPROCS(0)
	// calls run at once; an Exec backed by a smaller pool (the harness's
	// engine) bounds its own width.
	Exec ExecFunc
	// Notify, when set, is called once the prune decision is made (after
	// calibration and ranking, before the top-K and audit cells simulate):
	// pruned is the number of cells the model will answer, audited the
	// subset of those simulated anyway. Campaign drivers feed these to the
	// progress line and fleet events.
	Notify func(pruned, audited int)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// workers bounds how many Exec calls are in flight; 0 is
	// runtime.GOMAXPROCS(0). Tests pin it to fix the width.
	workers int
}

// Point is one cell of the exploration report.
type Point struct {
	Config string     `json:"config"`
	Bench  string     `json:"bench"`
	Pred   Prediction `json:"pred"`
	// Simulated cells carry measured results and the model's live error.
	Simulated bool    `json:"simulated,omitempty"`
	Anchor    bool    `json:"anchor,omitempty"`
	Audit     bool    `json:"audit,omitempty"`
	SimCycles uint64  `json:"sim_cycles,omitempty"`
	SimIPC    float64 `json:"sim_ipc,omitempty"`
	ErrPct    float64 `json:"err_pct,omitempty"`
}

// ConfigSummary aggregates one config across the suite.
type ConfigSummary struct {
	Config string `json:"config"`
	// SuiteIPC is the harmonic-mean IPC across benchmarks: measured where
	// simulated, calibrated model prediction otherwise.
	SuiteIPC float64 `json:"suite_ipc"`
	// BitVectorBits is the WIB wakeup bit-vector budget in bits (0 for
	// conventional configs); CacheBytes is L1D+L2 capacity. Together with
	// SuiteIPC they span the Pareto space.
	BitVectorBits int  `json:"bit_vector_bits"`
	CacheBytes    int  `json:"cache_bytes"`
	Simulated     bool `json:"simulated,omitempty"`
	Frontier      bool `json:"frontier,omitempty"`
}

// Report is the outcome of an exploration.
type Report struct {
	Points  []Point         `json:"points"`
	Configs []ConfigSummary `json:"configs"`
	// Frontier indexes Configs: the Pareto-optimal set maximizing
	// SuiteIPC while minimizing BitVectorBits and CacheBytes.
	Frontier []int `json:"frontier"`

	TotalCells int `json:"total_cells"`
	Simulated  int `json:"simulated"`
	Pruned     int `json:"pruned"`
	Audited    int `json:"audited"`
	Anchors    int `json:"anchors"`
	// AuditErrPct is the mean absolute percent cycle error of the model on
	// the audit slice — the live accuracy check a pruned sweep reports.
	AuditErrPct float64 `json:"audit_err_pct"`
}

// BitVectorBudget returns the wakeup bit-vector storage a config spends,
// in bits: one window-length bit-vector per tracked outstanding miss
// (explicitly sized by BitVectors, otherwise one per load-queue entry, as
// in the paper's baseline WIB). Conventional configs spend none.
func BitVectorBudget(cfg core.Config) int {
	if cfg.WIB == nil {
		return 0
	}
	nv := cfg.WIB.BitVectors
	if nv <= 0 {
		nv = cfg.LoadQueue
	}
	return nv * cfg.WIB.Entries
}

// CacheBudget returns the data-side cache capacity of a config in bytes.
func CacheBudget(cfg core.Config) int {
	return cfg.Mem.L1D.SizeBytes + cfg.Mem.L2.SizeBytes
}

// collectProfiles returns the profile of every cell (index
// ci*len(Benches)+bi), collecting one per bench and distinct family: a
// profile depends on the program and on the cache hierarchy and predictor
// geometry Collect runs it against, and on nothing else in the config.
func (s *Space) collectProfiles(logf func(string, ...any)) ([]*Profile, error) {
	family := make([]string, len(s.Configs))
	for ci, cfg := range s.Configs {
		family[ci] = fmt.Sprintf("%s\x00%v", MemKey(cfg.Mem), cfg.Bpred)
	}
	nb := len(s.Benches)
	profiles := make([]*Profile, len(s.Configs)*nb)
	for bi, bench := range s.Benches {
		src, err := workload.ParseRef(bench)
		if err != nil {
			return nil, fmt.Errorf("model: explore workload %q: %w", bench, err)
		}
		prog, err := src.Build(s.Scale)
		if err != nil {
			return nil, fmt.Errorf("model: building %q: %w", bench, err)
		}
		byFamily := map[string]*Profile{}
		for ci, cfg := range s.Configs {
			p := byFamily[family[ci]]
			if p == nil {
				p, err = Collect(prog, s.Scale.String(), CollectOptions{
					MaxInstr: s.ProfileInstr,
					Mem:      cfg.Mem,
					Bpred:    cfg.Bpred,
				})
				if err != nil {
					return nil, err
				}
				byFamily[family[ci]] = p
			}
			profiles[ci*nb+bi] = p
		}
		logf("model: profiled %s", bench)
	}
	return profiles, nil
}

// Explore runs the model-pruned sweep: profile once per (bench, cache
// family, predictor geometry), predict every cell, simulate only the
// anchors (the extreme windows of each config family, which calibrate the
// model), every cell of the top-K predicted configs, and a seeded audit
// slice of the pruned cells that measures live model error. The simulated
// cells go to Exec in two batches — the anchors, then the top-K and audit
// cells together — and the Report is the same whatever order a batch's
// cells finish in.
func (s *Space) Explore() (*Report, error) {
	if s.Exec == nil {
		return nil, fmt.Errorf("model: explore needs an Exec function")
	}
	if len(s.Configs) == 0 || len(s.Benches) == 0 {
		return nil, fmt.Errorf("model: explore needs configs and benches")
	}
	topK := s.TopK
	if topK <= 0 {
		topK = 3
	}
	auditFrac := s.AuditFrac
	if auditFrac == 0 {
		auditFrac = 0.1
	}
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	profiles, err := s.collectProfiles(logf)
	if err != nil {
		return nil, err
	}

	// Raw predictions for the full grid, cell index = ci*len(Benches)+bi.
	nb := len(s.Benches)
	points := make([]Point, len(s.Configs)*nb)
	for ci, cfg := range s.Configs {
		for bi, bench := range s.Benches {
			points[ci*nb+bi] = Point{
				Config: cfg.Name,
				Bench:  bench,
				Pred:   Predict(profiles[ci*nb+bi], cfg),
			}
		}
	}

	rep := &Report{TotalCells: len(points)}

	// Anchors: per (family) the min- and max-window config plus the one
	// nearest the geometric mean of the extremes, simulated on every
	// benchmark so each (bench, family) pair gets a three-knot scale —
	// the mid knot corrects the curvature a two-point interpolation
	// misses across a deep config ladder.
	famConfigs := map[string][]int{}
	for ci, cfg := range s.Configs {
		fam := Family(cfg)
		famConfigs[fam] = append(famConfigs[fam], ci)
	}
	anchorSet := map[int]bool{}
	for _, cis := range famConfigs {
		lo, hi := cis[0], cis[0]
		for _, ci := range cis[1:] {
			w := EffectiveWindow(s.Configs[ci])
			if w < EffectiveWindow(s.Configs[lo]) {
				lo = ci
			}
			if w > EffectiveWindow(s.Configs[hi]) {
				hi = ci
			}
		}
		mid := lo
		target := math.Sqrt(EffectiveWindow(s.Configs[lo]) * EffectiveWindow(s.Configs[hi]))
		best := math.Inf(1)
		for _, ci := range cis {
			if d := math.Abs(math.Log(EffectiveWindow(s.Configs[ci]) / target)); d < best {
				best, mid = d, ci
			}
		}
		anchorSet[lo] = true
		anchorSet[hi] = true
		anchorSet[mid] = true
	}
	anchors := make([]int, 0, len(anchorSet))
	for ci := range anchorSet {
		anchors = append(anchors, ci)
	}
	sort.Ints(anchors)
	var anchorCells []int
	for _, ci := range anchors {
		for bi := range s.Benches {
			anchorCells = append(anchorCells, ci*nb+bi)
		}
	}
	if err := s.simulate(points, anchorCells, rep); err != nil {
		return nil, err
	}
	cal := NewCalibration()
	for _, idx := range anchorCells {
		pt := &points[idx]
		pt.Anchor = true
		cal.Observe(pt.Bench, s.Configs[idx/nb], pt.Pred, pt.SimCycles)
	}
	rep.Anchors = len(anchors) * nb
	logf("model: calibrated on %d anchor cells (%d configs)", rep.Anchors, len(anchors))

	// Calibrate every prediction, then rank configs by predicted suite IPC.
	for ci, cfg := range s.Configs {
		for bi, bench := range s.Benches {
			pt := &points[ci*nb+bi]
			pt.Pred = cal.Apply(bench, cfg, pt.Pred)
		}
	}
	suitePred := make([]float64, len(s.Configs))
	for ci := range s.Configs {
		ipcs := make([]float64, nb)
		for bi := range s.Benches {
			ipcs[bi] = points[ci*nb+bi].Pred.IPC
		}
		suitePred[ci] = stats.HarmonicMean(ipcs)
	}
	order := make([]int, len(s.Configs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return suitePred[order[a]] > suitePred[order[b]] })
	keep := make([]bool, len(s.Configs))
	for i := 0; i < topK && i < len(order); i++ {
		keep[order[i]] = true
	}
	for _, ci := range anchors {
		keep[ci] = true
	}

	// The second batch: every cell of the top-K configs not simulated as an
	// anchor, and the audit slice — a seeded, deterministic sample of the
	// pruned cells, the cells of every other config. Both are known now,
	// so they share one batch.
	var topCells, pruned []int
	for idx := range points {
		switch {
		case !keep[idx/nb]:
			pruned = append(pruned, idx)
		case !points[idx].Simulated:
			topCells = append(topCells, idx)
		}
	}
	nAudit := 0
	if auditFrac > 0 {
		nAudit = int(auditFrac*float64(len(pruned)) + 0.5)
		if nAudit == 0 && len(pruned) > 0 {
			nAudit = 1
		}
	}
	sort.SliceStable(pruned, func(a, b int) bool {
		return stats.SplitMix64(s.Seed^uint64(pruned[a])) < stats.SplitMix64(s.Seed^uint64(pruned[b]))
	})
	if s.Notify != nil {
		s.Notify(len(pruned)-nAudit, nAudit)
	}
	if err := s.simulate(points, append(topCells, pruned[:nAudit]...), rep); err != nil {
		return nil, err
	}
	var auditPred, auditMeas []float64
	for _, idx := range pruned[:nAudit] {
		pt := &points[idx]
		pt.Audit = true
		auditPred = append(auditPred, pt.Pred.Cycles)
		auditMeas = append(auditMeas, float64(pt.SimCycles))
	}
	rep.Audited = nAudit
	rep.AuditErrPct = stats.MeanAbsPctErr(auditPred, auditMeas)

	// Per-cell live error for everything simulated.
	for idx := range points {
		pt := &points[idx]
		if pt.Simulated && pt.SimCycles > 0 {
			pt.ErrPct = 100 * abs(pt.Pred.Cycles-float64(pt.SimCycles)) / float64(pt.SimCycles)
		}
	}
	rep.Pruned = rep.TotalCells - rep.Simulated

	// Config summaries and the Pareto frontier: maximize suite IPC,
	// minimize bit-vector budget and cache capacity.
	rep.Configs = make([]ConfigSummary, len(s.Configs))
	dims := make([][]float64, len(s.Configs))
	for ci, cfg := range s.Configs {
		ipcs := make([]float64, nb)
		allSim := true
		for bi := range s.Benches {
			pt := &points[ci*nb+bi]
			if pt.Simulated {
				ipcs[bi] = pt.SimIPC
			} else {
				ipcs[bi] = pt.Pred.IPC
				allSim = false
			}
		}
		cs := ConfigSummary{
			Config:        cfg.Name,
			SuiteIPC:      stats.HarmonicMean(ipcs),
			BitVectorBits: BitVectorBudget(cfg),
			CacheBytes:    CacheBudget(cfg),
			Simulated:     allSim,
		}
		rep.Configs[ci] = cs
		dims[ci] = []float64{cs.SuiteIPC, -float64(cs.BitVectorBits), -float64(cs.CacheBytes)}
	}
	rep.Frontier = stats.ParetoFront(dims)
	for _, ci := range rep.Frontier {
		rep.Configs[ci].Frontier = true
	}
	rep.Points = points
	logf("model: explored %d cells — %d simulated (%d anchors, %d audit), %d pruned, audit err %.1f%%",
		rep.TotalCells, rep.Simulated, rep.Anchors, rep.Audited, rep.Pruned, rep.AuditErrPct)
	return rep, nil
}

// simulate runs Exec on cells (index ci*len(Benches)+bi) as one batch:
// up to s.workers calls in flight, the costliest predicted cell first
// (longest-processing-time order, ties to the lower index), each worker
// writing only its own cell's measurement. The cells are marked simulated
// after the join. A failure skips the batch's cells above its index but
// not those below, so the error returned is the lowest-index failing
// cell's whatever the completion order.
func (s *Space) simulate(points []Point, cells []int, rep *Report) error {
	order := slices.Clone(cells)
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(points[b].Pred.Cycles, points[a].Pred.Cycles); c != 0 {
			return c
		}
		return a - b
	})
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := len(s.Benches)
	errs := make([]error, len(points))
	var next, lowest atomic.Int64
	lowest.Store(int64(len(points)))
	var wg sync.WaitGroup
	for range min(workers, len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(order)); k = next.Add(1) - 1 {
				idx := order[k]
				if int64(idx) > lowest.Load() {
					continue
				}
				cycles, ipc, err := s.Exec(s.Configs[idx/nb], s.Benches[idx%nb])
				if err != nil {
					errs[idx] = err
					for cur := lowest.Load(); int64(idx) < cur && !lowest.CompareAndSwap(cur, int64(idx)); cur = lowest.Load() {
					}
					continue
				}
				points[idx].SimCycles, points[idx].SimIPC = cycles, ipc
			}
		}()
	}
	wg.Wait()
	if i := lowest.Load(); i < int64(len(points)) {
		pt := &points[i]
		return fmt.Errorf("model: explore cell %s × %s: %w", pt.Config, pt.Bench, errs[i])
	}
	for _, idx := range cells {
		points[idx].Simulated = true
	}
	rep.Simulated += len(cells)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
