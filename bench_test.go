package largewindow

// One testing.B benchmark per table/figure of the paper. Each regenerates
// its experiment through the harness (at a reduced per-run instruction
// budget so `go test -bench=.` completes in minutes; use cmd/experiments
// for the full-budget tables) and reports the headline series as
// benchmark metrics: suite-average speedups over the 32-IQ/128 base
// machine, exactly the numbers the paper's figures plot.

import (
	"io"
	"os"
	"strconv"
	"testing"

	"largewindow/internal/harness"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

// benchBudget is the per-run committed-instruction budget. Override with
// LARGEWINDOW_BENCH_INSTR for full-fidelity runs.
func benchBudget() uint64 {
	if s := os.Getenv("LARGEWINDOW_BENCH_INSTR"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 60_000
}

func benchSession() *harness.Session {
	return harness.NewSession(harness.Options{
		MaxInstr: benchBudget(),
		Scale:    workload.ScaleRun,
	})
}

// reportTables renders the regenerated tables when -v is set and reports
// per-suite averages parsed out of the experiment run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		out := io.Discard
		if testing.Verbose() {
			out = os.Stdout
		}
		if err := harness.RunExperiments(s, []string{id}, out); err != nil {
			b.Fatal(err)
		}
	}
}

// reportSuiteSpeedups runs new/old configs over all kernels, reports the
// suite-average speedups as metrics, and returns the total committed
// instructions so callers can also report wall-clock throughput.
func reportSuiteSpeedups(b *testing.B, s *harness.Session, newCfg, oldCfg Config) uint64 {
	b.Helper()
	news, err := s.RunAll(newCfg)
	if err != nil {
		b.Fatal(err)
	}
	olds, err := s.RunAll(oldCfg)
	if err != nil {
		b.Fatal(err)
	}
	per := map[string][]float64{}
	var committed uint64
	for name, n := range news {
		o := olds[name]
		per[n.Suite] = append(per[n.Suite], stats.Speedup(n.IPC, o.IPC))
		committed += n.Stats.Committed + o.Stats.Committed
	}
	b.ReportMetric(stats.ArithMean(per[workload.SuiteInt.String()]), "int-speedup")
	b.ReportMetric(stats.ArithMean(per[workload.SuiteFP.String()]), "fp-speedup")
	b.ReportMetric(stats.ArithMean(per[workload.SuiteOlden.String()]), "olden-speedup")
	return committed
}

// BenchmarkFig1 regenerates the Figure 1 limit study (window sizes 32-4K).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable2 regenerates Table 2 (per-benchmark base/WIB statistics).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig4 regenerates Figure 4 and reports the WIB's suite-average
// speedups — the paper's headline 20%/84%/50% series.
func BenchmarkFig4(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfig(), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig4Conventional reports the 2K-IQ/2K series of Figure 4 (the
// paper's 35%/140%/103%).
func BenchmarkFig4Conventional(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, ScaledConfig(2048, 2048), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig5 regenerates Figure 5 (limited bit-vectors) and reports
// the 16-bit-vector series.
func BenchmarkFig5(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfigSized(2048, 16), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig6 regenerates Figure 6 (WIB capacity) and reports the
// 256-entry series.
func BenchmarkFig6(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfigSized(256, 64), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkPolicy regenerates the §4.4 selection-policy study.
func BenchmarkPolicy(b *testing.B) { runExperiment(b, "policy") }

// BenchmarkFig7 regenerates Figure 7 (non-banked multicycle WIB).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkSensitivity regenerates the §4.1 sensitivity studies
// (100-cycle memory, 1MB L2, 64KB L1D).
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sens") }

// BenchmarkPoolOfBlocks regenerates the §3.5 organization comparison
// (extension: the paper describes but does not evaluate it).
func BenchmarkPoolOfBlocks(b *testing.B) { runExperiment(b, "pool") }

// BenchmarkSliceCore regenerates the §6 future-work study (slice
// execution core, register-file prefetch, multi-banked register file).
func BenchmarkSliceCore(b *testing.B) { runExperiment(b, "slice") }
