package harness

import (
	"fmt"
	"io"
	"strings"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/sample"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

// Row is one machine of an experiment: the label it is reported under,
// the machine, and the machine its speedup is measured against.
type Row struct {
	Label string
	Cfg   core.Config
	Ref   *core.Config // nil = the 32-IQ/128 baseline
}

// Experiment declares one of the paper's tables or figures: the machines
// it compares and the layout of the measured sweep. Everything else is
// derived from the declaration: Configs is computed from Rows, the cells
// Session.Prime submits are Configs × the selected workloads, and
// Session.measure runs exactly Configs before a layout reads a result —
// so the primed cells and the rendered tables agree cell for cell, and in
// order, by construction.
type Experiment struct {
	ID     string // "fig1", "table2", ...
	Title  string
	Rows   []Row
	render func(*sweep) []*stats.Table
}

// Configs lists every configuration the experiment simulates: the
// 32-IQ/128 baseline (every experiment's speedup denominator), then each
// row's reference and machine.
func (ex Experiment) Configs() []core.Config {
	cfgs := []core.Config{core.DefaultConfig()}
	for _, r := range ex.Rows {
		if r.Ref != nil {
			cfgs = append(cfgs, *r.Ref)
		}
		cfgs = append(cfgs, r.Cfg)
	}
	return cfgs
}

// Experiments returns every experiment in paper order (DESIGN.md §3).
func Experiments() []Experiment {
	return []Experiment{fig1(), table2(), fig4(), fig5(), fig6(), policy(), fig7(), sens(), pool(), slice()}
}

// selectExperiments resolves an id list ("all" or nil = all) to the
// experiments it names, in paper order. An id that names no experiment
// is an error, not an empty selection.
func selectExperiments(ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	every := len(ids) == 0 || want["all"]
	delete(want, "all")
	var out []Experiment
	valid := []string{"all"}
	for _, ex := range Experiments() {
		valid = append(valid, ex.ID)
		if every || want[ex.ID] {
			out = append(out, ex)
		}
		delete(want, ex.ID)
	}
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("harness: unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
	}
	return out, nil
}

// Prime submits every (configuration × benchmark) cell the named
// experiments ("all" or nil = all) will read to the engine without
// waiting, in the order the tables read them: the experiments in paper
// order, each one's Configs() × the session's workloads. The engine runs
// its queue in that order and drops the repeats (the baseline appears in
// every experiment), so each table prints as soon as its own cells have
// finished while the pool works on the next. It returns how many cells
// were new to the engine; an unknown id is an error and submits nothing.
func (s *Session) Prime(ids []string) (int, error) {
	exps, err := selectExperiments(ids)
	if err != nil {
		return 0, err
	}
	srcs, err := s.benchmarks()
	if err != nil {
		return 0, err
	}
	var cells []campaign.Cell
	for _, ex := range exps {
		for _, cfg := range ex.Configs() {
			for _, src := range srcs {
				cells = append(cells, s.cell(cfg, src))
			}
		}
	}
	return s.eng.Prime(cells), nil
}

// RunExperiments runs the named experiments ("all" or nil = all) and
// renders their tables to w.
func RunExperiments(s *Session, ids []string, w io.Writer) error {
	exps, err := selectExperiments(ids)
	if err != nil {
		return err
	}
	for _, ex := range exps {
		fmt.Fprintf(w, "### %s\n\n", ex.Title)
		m, err := s.measure(ex)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		for _, t := range ex.render(m) {
			t.Render(w)
		}
	}
	return nil
}

// sweep is an experiment's measured grid. res[i][j] is row i's machine on
// workload j and ref[i][j] the machine it is measured against on the same
// workload, both in the session's workload order.
type sweep struct {
	rows     []Row
	srcs     []workload.Source
	plan     *sample.Plan // non-nil: every cell was a sampled run
	res, ref [][]*campaign.Record
}

// measure runs the experiment's Configs() — exactly the list Prime
// expands — and files the results under the rows that declared
// them. A failed cell fails the experiment (RunAll has already let the
// rest of that configuration finish).
func (s *Session) measure(ex Experiment) (*sweep, error) {
	srcs, err := s.benchmarks()
	if err != nil {
		return nil, err
	}
	var grid [][]*campaign.Record // one line per Configs() entry, in workload order
	for _, cfg := range ex.Configs() {
		byKey, err := s.RunAll(cfg)
		if err != nil {
			return nil, err
		}
		line := make([]*campaign.Record, len(srcs))
		for j, src := range srcs {
			line[j] = byKey[resultKey(src)]
		}
		grid = append(grid, line)
	}
	m := &sweep{rows: ex.Rows, srcs: srcs, plan: s.opt.Sampling}
	next := 1 // grid[0] is the baseline; Configs() lists each row's reference, then its machine
	for _, row := range ex.Rows {
		ref := grid[0]
		if row.Ref != nil {
			ref, next = grid[next], next+1
		}
		m.ref, m.res = append(m.ref, ref), append(m.res, grid[next])
		next++
	}
	return m, nil
}

// speedups returns, in workload order, row i's speedup over its reference
// on every workload of one suite (the paper's metric; its suite averages
// are their arithmetic means).
func (m *sweep) speedups(i int, suite workload.Suite) []float64 {
	var sp []float64
	for j, src := range m.srcs {
		if src.Suite() == suite {
			sp = append(sp, stats.Speedup(m.res[i][j].IPC, m.ref[i][j].IPC))
		}
	}
	return sp
}

// suiteTable lays rows lo..hi-1 out as one table: a line per row, the
// suite-average speedup of its machine over its reference per column.
func suiteTable(title string, lo, hi int, note string) func(*sweep) []*stats.Table {
	return func(m *sweep) []*stats.Table {
		t := &stats.Table{
			Title:   title,
			Headers: []string{"configuration", "SPEC-INT speedup", "SPEC-FP speedup", "Olden speedup"},
		}
		for i := lo; i < hi; i++ {
			line := []interface{}{m.rows[i].Label}
			for _, suite := range suites {
				av := stats.ArithMean(m.speedups(i, suite))
				line = append(line, fmt.Sprintf("%.3f (%s)", av, stats.Pct(av)))
			}
			t.AddRow(line...)
		}
		if note != "" {
			t.Notes = append(t.Notes, note)
		}
		return []*stats.Table{t}
	}
}

// benchTables lays the sweep out as one table per suite: a line per
// benchmark, a column per row, and an Average line (with the percentage
// improvement when pctAvg is set). notes[k], when non-empty, goes under
// the k-th suite's table.
func benchTables(titleFmt string, pctAvg bool, notes ...string) func(*sweep) []*stats.Table {
	return func(m *sweep) []*stats.Table {
		var tables []*stats.Table
		for k, suite := range suites {
			t := &stats.Table{Title: fmt.Sprintf(titleFmt, suite), Headers: []string{"benchmark"}}
			if k < len(notes) && notes[k] != "" {
				t.Notes = []string{notes[k]}
			}
			for _, src := range m.srcs {
				if src.Suite() == suite {
					t.Rows = append(t.Rows, []string{src.Name()})
				}
			}
			avg := []string{"Average"}
			for i, row := range m.rows {
				t.Headers = append(t.Headers, row.Label)
				sp := m.speedups(i, suite)
				for b, v := range sp {
					t.Rows[b] = append(t.Rows[b], fmt.Sprintf("%.2f", v))
				}
				mean := stats.ArithMean(sp)
				cell := fmt.Sprintf("%.2f", mean)
				if pctAvg {
					cell += fmt.Sprintf(" (%s)", stats.Pct(mean))
				}
				avg = append(avg, cell)
			}
			t.Rows = append(t.Rows, avg)
			tables = append(tables, t)
		}
		return tables
	}
}

// named makes one row per machine, labelled with the machine's own name.
func named(cfgs ...core.Config) []Row {
	rows := make([]Row, len(cfgs))
	for i, cfg := range cfgs {
		rows[i] = Row{Label: cfg.Name, Cfg: cfg}
	}
	return rows
}

// fig1 is the limit study: conventional issue queues from 32 to 4K
// entries (IQ ≤ 128 keep the 128-entry active list; larger configurations
// scale the active list, registers, and LSQ with the queue, §2.2.2).
func fig1() Experiment {
	const note = "paper shape: IPC rises with window size and plateaus near 2K entries"
	return Experiment{
		ID: "fig1", Title: "Figure 1: conventional window-size limit study",
		Rows: []Row{
			{Label: "64", Cfg: core.ScaledConfig(64, 128)},
			{Label: "128", Cfg: core.ScaledConfig(128, 128)},
			{Label: "256", Cfg: core.ScaledConfig(256, 256)},
			{Label: "512", Cfg: core.ScaledConfig(512, 512)},
			{Label: "1K", Cfg: core.ScaledConfig(1024, 1024)},
			{Label: "2K", Cfg: core.ScaledConfig(2048, 2048)},
			{Label: "4K", Cfg: core.ScaledConfig(4096, 4096)},
		},
		render: benchTables("Figure 1 (%s): speedup over 32-IQ/128 by window size", false, note, note, note),
	}
}

// table2 reports the base machine's per-benchmark statistics plus the
// WIB machine's IPC, with harmonic means per suite.
func table2() Experiment {
	const title = "Table 2: benchmark performance statistics"
	return Experiment{
		ID: "table2", Title: title,
		Rows: []Row{{Label: "WIB", Cfg: core.WIBDefault()}},
		render: func(m *sweep) []*stats.Table {
			// Sampled sessions qualify each IPC with its 95% confidence half-width.
			sampled := m.plan != nil
			ipc := func(r *campaign.Record) any {
				if sampled {
					return fmt.Sprintf("%.3f ±%.3f", r.IPC, r.IPCCI95)
				}
				return r.IPC
			}
			baseHdr, wibHdr := "base IPC", "WIB IPC"
			if sampled {
				baseHdr, wibHdr = "base IPC ±CI", "WIB IPC ±CI"
			}
			t := &stats.Table{
				Title:   title,
				Headers: []string{"benchmark", baseHdr, "branch dir pred", "DL1 miss ratio", "UL2 local miss", wibHdr},
			}
			for _, suite := range suites {
				var baseIPCs, wibIPCs []float64
				for j, src := range m.srcs {
					if src.Suite() != suite {
						continue
					}
					b, w := m.ref[0][j], m.res[0][j]
					t.AddRow(src.Name(), ipc(b), b.BrAcc, b.DL1Miss, b.L2Local, ipc(w))
					baseIPCs = append(baseIPCs, b.IPC)
					wibIPCs = append(wibIPCs, w.IPC)
				}
				t.AddRow(fmt.Sprintf("HM (%s)", suite), stats.HarmonicMean(baseIPCs), "", "", "", stats.HarmonicMean(wibIPCs))
			}
			t.AddNote("paper harmonic means: base 1.00/1.42/1.17, WIB 1.24/3.02/1.61 (INT/FP/Olden)")
			if sampled {
				t.AddNote("sampled run (%s): IPCs are point estimates ± 95%% CI over interval IPCs", m.plan)
			}
			return []*stats.Table{t}
		},
	}
}

// fig4 compares the WIB machine against the base and the two scaled
// conventional machines (32-IQ/2K and 2K-IQ/2K).
func fig4() Experiment {
	return Experiment{
		ID: "fig4", Title: "Figure 4: WIB performance vs. scaled conventional designs",
		Rows: []Row{
			{Label: "32-IQ/2K", Cfg: core.ScaledConfig(32, 2048)},
			{Label: "2K-IQ/2K", Cfg: core.ScaledConfig(2048, 2048)},
			{Label: "WIB", Cfg: core.WIBDefault()},
		},
		render: benchTables("Figure 4 (%s): speedup over 32-IQ/128", true, "", "",
			"paper averages: WIB +20%/+84%/+50%; 2K-IQ/2K +35%/+140%/+103% (INT/FP/Olden)"),
	}
}

// fig5 limits the number of bit-vectors (outstanding load misses).
func fig5() Experiment {
	var rows []Row
	for _, bv := range []int{16, 32, 64, 1024} {
		rows = append(rows, Row{Label: fmt.Sprintf("%d bit-vectors", bv), Cfg: core.WIBConfigSized(2048, bv)})
	}
	return Experiment{
		ID: "fig5", Title: "Figure 5: performance of limited bit-vectors", Rows: rows,
		render: suiteTable("Figure 5: limited bit-vectors (2K WIB), suite-average speedup over 32-IQ/128", 0, len(rows),
			"paper: 16 vectors still give +16%/+26%/+38%; 64 give +19%/+45%/+50%"),
	}
}

// fig6 shrinks the WIB capacity (with the active list, registers, and
// LSQ scaling along), with bit-vectors fixed at 64.
func fig6() Experiment {
	var rows []Row
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		rows = append(rows, Row{Label: fmt.Sprintf("%d-entry WIB", n), Cfg: core.WIBConfigSized(n, 64)})
	}
	return Experiment{
		ID: "fig6", Title: "Figure 6: WIB capacity effects", Rows: rows,
		render: suiteTable("Figure 6: WIB capacity effects (64 bit-vectors), suite-average speedup over 32-IQ/128", 0, len(rows),
			"paper: 256-entry WIB keeps +9%/+26%/+14%; monotone in capacity"),
	}
}

// policy compares reinsertion selection policies (§4.4) — the banked
// reference plus three idealized single-cycle WIBs differing only in
// policy — and reports WIB insertion counts.
func policy() Experiment {
	mk := func(policy core.WIBPolicy, name string) core.Config {
		cfg := core.WIBConfigSized(2048, 0)
		cfg.WIB.Banked = false
		cfg.WIB.Policy = policy
		cfg.Name = name
		return cfg
	}
	rows := named(
		core.WIBDefault(), // (1) banked
		mk(core.PolicyProgramOrder, "WIB-ideal/program-order"),
		mk(core.PolicyRoundRobinLoad, "WIB-ideal/rr-load"),
		mk(core.PolicyOldestLoad, "WIB-ideal/oldest-load"),
	)
	speedups := suiteTable("Section 4.4: selection policies, suite-average speedup over 32-IQ/128", 0, len(rows), "")
	return Experiment{
		ID: "policy", Title: "Section 4.4: WIB-to-issue-queue instruction selection", Rows: rows,
		render: func(m *sweep) []*stats.Table {
			ins := &stats.Table{
				Title:   "Section 4.4: WIB insertion counts per WIB-using instruction",
				Headers: []string{"configuration", "avg insertions", "max insertions"},
			}
			for i, row := range m.rows {
				var avg float64
				n, maxIns := 0, 0
				for _, r := range m.res[i] {
					if r.Stats.WIBInstructions > 0 {
						avg += r.Stats.AvgWIBInsertions()
						n++
					}
					if r.Stats.WIBMaxInsertions > maxIns {
						maxIns = r.Stats.WIBMaxInsertions
					}
				}
				if n > 0 {
					avg /= float64(n)
				}
				ins.AddRow(row.Label, avg, maxIns)
			}
			ins.AddNote("paper (mgrid): banked averages 4 insertions (max 280); other policies reduce it to ~1 (max 9)")
			return append(speedups(m), ins)
		},
	}
}

// fig7 compares the banked WIB against non-banked organizations with
// 4- and 6-cycle access.
func fig7() Experiment {
	mk := func(lat int64) core.Config {
		cfg := core.WIBConfigSized(2048, 0)
		cfg.WIB.Banked = false
		cfg.WIB.AccessLatency = lat
		cfg.Name = fmt.Sprintf("WIB-nonbanked/%dcyc", lat)
		return cfg
	}
	rows := named(core.WIBDefault(), mk(4), mk(6))
	return Experiment{
		ID: "fig7", Title: "Figure 7: non-banked multicycle WIB", Rows: rows,
		render: suiteTable("Figure 7: banked vs. non-banked WIB, suite-average speedup over 32-IQ/128", 0, len(rows),
			"paper: multicycle non-banked access costs only slightly vs. banked"),
	}
}

// sens reproduces the §4.1 text experiments: 100-cycle memory and a 1MB
// L2 — each applied to both the base and the WIB machine, the WIB one
// measured against the base one — and spending the WIB area on a 64KB
// L1-D instead.
func sens() Experiment {
	var rows []Row
	variant := func(label string, mod func(*core.Config)) {
		baseCfg := core.DefaultConfig()
		mod(&baseCfg)
		baseCfg.Name = "32-IQ/128/" + label
		wibCfg := core.WIBDefault()
		mod(&wibCfg)
		wibCfg.Name = "WIB/" + label
		rows = append(rows, Row{Label: label, Cfg: wibCfg, Ref: &baseCfg})
	}
	variant("default (250-cycle mem)", func(c *core.Config) {})
	variant("100-cycle memory", func(c *core.Config) { c.Mem.MemLatency = 100 })
	variant("1MB L2", func(c *core.Config) { c.Mem.L2.SizeBytes = 1 << 20 })
	variants := len(rows)
	// Alternative area use: 64KB L1-D on the conventional machine.
	big := core.DefaultConfig()
	big.Mem.L1D.SizeBytes = 64 << 10
	big.Name = "32-IQ/128/64KB-L1D"
	rows = append(rows, Row{Label: "64KB L1-D", Cfg: big})

	memsys := suiteTable("Section 4.1 sensitivity: WIB speedup under memory-system variations", 0, variants,
		"paper: 100-cycle memory shrinks WIB gains to +5%/+30%/+17%; 1MB L2 to +5%/+61%/+38%")
	bigL1D := suiteTable("Section 4.1: doubling the L1 data cache instead (speedup over 32KB base)", variants, len(rows),
		"paper: <2% improvement for all benchmarks except vortex (+9%) — the WIB is the better use of area")
	return Experiment{
		ID: "sens", Title: "Section 4.1: memory latency / L2 size / L1D sensitivity", Rows: rows,
		render: func(m *sweep) []*stats.Table { return append(memsys(m), bigL1D(m)...) },
	}
}

// pool is an extension experiment: the paper describes (and rejects) a
// pool-of-blocks WIB organization in §3.5 but does not evaluate it. We
// do: deposit-order chains with a shared block pool, swept over pool
// sizes, against the paper's bit-vector design.
func pool() Experiment {
	rows := named(
		core.WIBDefault(), // bit-vector reference
		core.WIBPoolOfBlocks(2048, 64, 32),
		core.WIBPoolOfBlocks(2048, 16, 32),
		core.WIBPoolOfBlocks(2048, 4, 32),
	)
	speedups := suiteTable("Section 3.5 extension: WIB organizations, suite-average speedup over 32-IQ/128", 0, len(rows),
		"the paper rejected this organization for its squash complexity and deadlock risk (§3.5)")
	return Experiment{
		ID: "pool", Title: "Section 3.5 (extension): bit-vector vs. pool-of-blocks organization", Rows: rows,
		render: func(m *sweep) []*stats.Table {
			spills := &stats.Table{
				Title:   "Section 3.5 extension: pool-of-blocks overflow spills",
				Headers: []string{"configuration", "total pool spills (all benchmarks)"},
			}
			for i, row := range m.rows {
				var sp uint64
				for _, r := range m.res[i] {
					sp += r.Stats.PoolSpills
				}
				spills.AddRow(row.Label, sp)
			}
			return append(speedups(m), spills)
		},
	}
}

// slice measures the paper's §6 future-work directions: executing WIB
// instructions on a separate (slice) core, register-file prefetching at
// reinsertion, and the multi-banked register-file alternative.
func slice() Experiment {
	prefetch := core.WIBDefault()
	prefetch.RFPrefetchOnReinsert = true
	prefetch.Name = "WIB+rf-prefetch"
	rows := named(
		core.WIBDefault(),
		core.WIBWithSliceCore(2048, 2),
		core.WIBWithSliceCore(2048, 4),
		prefetch,
		core.WIBMultiBankedRF(2048, 8, 2),
	)
	return Experiment{
		ID: "slice", Title: "Section 6 (extension): slice execution core and register-file variants", Rows: rows,
		render: func(m *sweep) []*stats.Table {
			var sliceTotal uint64
			for i := range m.rows {
				for _, r := range m.res[i] {
					sliceTotal += r.Stats.SliceExecuted
				}
			}
			return suiteTable("Section 6 extension: future-work variants, suite-average speedup over 32-IQ/128", 0, len(rows),
				fmt.Sprintf("slice cores executed %d instructions across all runs; the paper left this design to future work", sliceTotal))(m)
		},
	}
}
