package main

import (
	"math"
	"sort"
)

// metricDef declares one benchmark metric. The end-to-end and per-layer
// tables below are the single source of truth: BENCHMARK.json carries
// the same names, units, directions and bounds (benchmark_test.go checks
// the two agree), and every run emits exactly these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd lists what a user of the simulator sees, measured with tracing
// off. Every workload emits every one of them; an "op" is a simulated
// instruction (Skipped + Committed) on the four simulation workloads and
// a campaign cell on explore-grid and fleet-run, a "call" is one
// client-visible call (SimulateContext, FastForward, ProgramLength,
// Session.Explore, Client.Exec). The four times are at reference speed:
// divided by the host's slowdown measured beside them (calib.go).
//
// The bounds are wide because the sandbox is: with no code change, a
// memory-bound workload (emu-ff) or one that fills both cores
// (explore-grid) reads 10-13% apart between processes, and the driver
// wants every metric's spread over ten seeds inside its bound. allocs is
// exact per seed; its bound covers the 6% it moves between seeds on
// sampled-suite.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_kop", Unit: "count", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "call_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the layered run's metrics, named <package>.<metric>. A
// workload reports 0 for a layer it does not exercise. The comment after
// each is the end-to-end metric @ workload it should move, stated before
// measuring ("none" for simulated counts, which compare two versions of
// the simulator and omit host time).
var perLayer = []metricDef{
	// host: context for wall_s and peak_rss_mb on every workload.
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},                   // wall_s @ all
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},            // wall_s @ all
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},           // wall_s @ all
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower"},               // peak_rss_mb @ all
	{Name: "host.trace_overhead_frac", Unit: "ratio", Better: "lower"}, // none (layered wall / untraced wall as measured - 1)
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},            // none (calibration loop beside the layered run / its nominal time: discount the host times below by it)

	// facade (package largewindow).
	{Name: "facade.simulate_glue_ms_per_cell", Unit: "ms", Better: "lower"}, // wall_s @ fig4-base, fig4-wib
	{Name: "facade.result_json_us", Unit: "us", Better: "lower"},            // wall_s @ fig4-base, fig4-wib
	{Name: "facade.digest_changed_cells", Unit: "count", Better: "lower"},   // none (cells whose simulated tuple left the recorded baseline)

	// workload / trace.
	{Name: "workload.build_ms_per_prog", Unit: "ms", Better: "lower"},         // wall_s @ fig4-base, fig4-wib, sampled-suite
	{Name: "workload.synth_build_ms_per_prog", Unit: "ms", Better: "lower"},   // wall_s @ sampled-suite
	{Name: "trace.record_minstrs_per_s", Unit: "Minstrs/s", Better: "higher"}, // wall_s @ fig4-base
	{Name: "trace.read_mb_per_s", Unit: "MB/s", Better: "higher"},             // wall_s @ fig4-base
	{Name: "trace.bytes_per_instr", Unit: "bytes", Better: "lower"},           // wall_s @ fig4-base

	// emu.
	{Name: "emu.run_minstrs_per_s", Unit: "Minstrs/s", Better: "higher"},        // ops_per_s @ sampled-suite, emu-ff
	{Name: "emu.runwarm_minstrs_per_s", Unit: "Minstrs/s", Better: "higher"},    // ops_per_s @ emu-ff
	{Name: "emu.runsink_minstrs_per_s", Unit: "Minstrs/s", Better: "higher"},    // ops_per_s @ sampled-suite
	{Name: "emu.runprofile_minstrs_per_s", Unit: "Minstrs/s", Better: "higher"}, // ops_per_s @ explore-grid
	{Name: "emu.ckpt_take_us", Unit: "us", Better: "lower"},                     // ops_per_s @ sampled-suite
	{Name: "emu.restore_ms", Unit: "ms", Better: "lower"},                       // wall_s @ emu-ff

	// mem: the three host numbers are the before/after of merging the
	// timed / warm / profile access triplets.
	{Name: "mem.timed_ns_per_access", Unit: "ns", Better: "lower"},    // ops_per_s @ fig4-base, fig4-wib
	{Name: "mem.warm_ns_per_access", Unit: "ns", Better: "lower"},     // ops_per_s @ sampled-suite
	{Name: "mem.profile_ns_per_access", Unit: "ns", Better: "lower"},  // ops_per_s @ explore-grid
	{Name: "mem.l1d_miss_ratio", Unit: "ratio", Better: "lower"},      // none (simulated)
	{Name: "mem.l2_local_miss_ratio", Unit: "ratio", Better: "lower"}, // none (simulated)
	{Name: "mem.tlb_miss_ratio", Unit: "ratio", Better: "lower"},      // none (simulated)
	{Name: "mem.accesses_per_kinstr", Unit: "count", Better: "lower"}, // none (simulated)

	// bpred.
	{Name: "bpred.predict_commit_ns_per_branch", Unit: "ns", Better: "lower"}, // ops_per_s @ fig4-base, fig4-wib
	{Name: "bpred.warm_ns_per_branch", Unit: "ns", Better: "lower"},           // ops_per_s @ sampled-suite
	{Name: "bpred.profile_ns_per_branch", Unit: "ns", Better: "lower"},        // ops_per_s @ explore-grid
	{Name: "bpred.clone_us", Unit: "us", Better: "lower"},                     // ops_per_s @ sampled-suite
	{Name: "bpred.cond_accuracy", Unit: "ratio", Better: "higher"},            // none (simulated)

	// regfile / heap.
	{Name: "regfile.readdelay_ns", Unit: "ns", Better: "lower"}, // ops_per_s @ fig4-wib
	{Name: "heap.pushpop_ns", Unit: "ns", Better: "lower"},      // ops_per_s @ fig4-base, fig4-wib

	// core, host time.
	{Name: "core.new_ms.base", Unit: "ms", Better: "lower"},                         // ops_per_s @ sampled-suite; wall_s @ emu-ff
	{Name: "core.new_ms.wib", Unit: "ms", Better: "lower"},                          // ops_per_s @ sampled-suite; wall_s @ emu-ff
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},                          // wall_s @ emu-ff
	{Name: "core.adopt_warm_us", Unit: "us", Better: "lower"},                       // ops_per_s @ sampled-suite
	{Name: "core.run_kinstrs_per_s.base", Unit: "kinstrs/s", Better: "higher"},      // ops_per_s @ fig4-base
	{Name: "core.run_ns_per_cycle.base", Unit: "ns", Better: "lower"},               // ops_per_s @ fig4-base
	{Name: "core.run_allocs_per_kinstr.base", Unit: "count", Better: "lower"},       // allocs_per_kop @ fig4-base
	{Name: "core.run_kinstrs_per_s.wib", Unit: "kinstrs/s", Better: "higher"},       // ops_per_s @ fig4-wib
	{Name: "core.run_kinstrs_per_s.wib.olden", Unit: "kinstrs/s", Better: "higher"}, // ops_per_s @ fig4-wib
	{Name: "core.run_ns_per_cycle.wib", Unit: "ns", Better: "lower"},                // ops_per_s @ fig4-wib
	{Name: "core.run_allocs_per_kinstr.wib", Unit: "count", Better: "lower"},        // allocs_per_kop @ fig4-wib
	{Name: "core.short_window_kinstrs_per_s", Unit: "kinstrs/s", Better: "higher"},  // ops_per_s @ sampled-suite
	{Name: "core.ff_skipped_cycle_frac", Unit: "ratio", Better: "higher"},           // ops_per_s @ fig4-base, fig4-wib

	// core, simulated time: exact per seed.
	{Name: "core.sim_cycles", Unit: "count", Better: "lower"},                  // none (simulated)
	{Name: "core.ipc_hmean", Unit: "ratio", Better: "higher"},                  // none (simulated)
	{Name: "core.fig4_speedup.int", Unit: "ratio", Better: "higher"},           // none (simulated)
	{Name: "core.fig4_speedup.fp", Unit: "ratio", Better: "higher"},            // none (simulated)
	{Name: "core.fig4_speedup.olden", Unit: "ratio", Better: "higher"},         // none (simulated)
	{Name: "core.wib_insertions_per_kinstr", Unit: "count", Better: "lower"},   // none (simulated; compare core.run_ns_per_cycle.wib)
	{Name: "core.wib_reinsertions_per_kinstr", Unit: "count", Better: "lower"}, // none (simulated)
	{Name: "core.bitvector_stalls_per_kinstr", Unit: "count", Better: "lower"}, // none (simulated)
	{Name: "core.replays_per_kinstr", Unit: "count", Better: "lower"},          // none (simulated)
	{Name: "core.squashed_frac", Unit: "ratio", Better: "lower"},               // none (simulated; wasted work)
	{Name: "core.avg_rob_occupancy", Unit: "count", Better: "higher"},          // none (simulated)
	{Name: "core.avg_mlp", Unit: "count", Better: "higher"},                    // none (simulated)

	// sample.
	{Name: "sample.sizing_s", Unit: "s", Better: "lower"},                // ops_per_s @ sampled-suite
	{Name: "sample.run_s", Unit: "s", Better: "lower"},                   // ops_per_s @ sampled-suite
	{Name: "sample.warm_share", Unit: "ratio", Better: "lower"},          // ops_per_s @ sampled-suite
	{Name: "sample.detailed_instr_frac", Unit: "ratio", Better: "lower"}, // ops_per_s @ sampled-suite
	{Name: "sample.intervals", Unit: "count", Better: "higher"},          // none (simulated)
	{Name: "sample.speedup_vs_full", Unit: "ratio", Better: "higher"},    // ops_per_s @ sampled-suite
	{Name: "sample.ci_cover_frac", Unit: "ratio", Better: "higher"},      // none (simulated; held-out cells whose 95% CI covers full-detail IPC)
	{Name: "sample.ipc_err_pct", Unit: "%", Better: "lower"},             // none (simulated; sampled vs full-detail IPC on the held-out cells)

	// model.
	{Name: "model.collect_ms_per_profile", Unit: "ms", Better: "lower"}, // ops_per_s @ explore-grid
	{Name: "model.predict_us", Unit: "us", Better: "lower"},             // ops_per_s @ explore-grid
	{Name: "model.pruned_frac", Unit: "ratio", Better: "higher"},        // ops_per_s @ explore-grid
	{Name: "model.simulated_cells", Unit: "count", Better: "lower"},     // ops_per_s @ explore-grid
	{Name: "model.audit_err_pct", Unit: "%", Better: "lower"},           // none (simulated; model vs detailed cycles on the audit slice)

	// campaign / harness.
	{Name: "campaign.cell_id_us", Unit: "us", Better: "lower"},                  // ops_per_s @ explore-grid, fleet-run
	{Name: "campaign.engine_overhead_us_per_cell", Unit: "us", Better: "lower"}, // ops_per_s @ explore-grid
	{Name: "campaign.store_put_us", Unit: "us", Better: "lower"},                // ops_per_s @ explore-grid, fleet-run
	{Name: "campaign.store_get_us", Unit: "us", Better: "lower"},                // ops_per_s @ explore-grid
	{Name: "campaign.resume_cells_per_s", Unit: "1/s", Better: "higher"},        // ops_per_s @ explore-grid
	{Name: "campaign.ckpt_cache_get_ms", Unit: "ms", Better: "lower"},           // ops_per_s @ explore-grid
	{Name: "harness.runall_vs_facade_ratio", Unit: "ratio", Better: "lower"},    // wall_s @ fig4-base

	// service / obs / telemetry.
	{Name: "service.submit_us_per_cell", Unit: "us", Better: "lower"},         // ops_per_s @ fleet-run
	{Name: "service.exec_ms_p50", Unit: "ms", Better: "lower"},                // ops_per_s @ fleet-run (2 clients / mean latency)
	{Name: "service.exec_ms_p99", Unit: "ms", Better: "lower"},                // call_ms_p95 @ fleet-run
	{Name: "service.exec_ms_p999", Unit: "ms", Better: "lower"},               // call_ms_p95 @ fleet-run
	{Name: "service.completed", Unit: "count", Better: "higher"},              // ops_per_s @ fleet-run
	{Name: "service.requeued", Unit: "count", Better: "lower"},                // ops_per_s @ fleet-run
	{Name: "service.retried", Unit: "count", Better: "lower"},                 // ops_per_s @ fleet-run
	{Name: "service.heap_mb_per_10k_queued", Unit: "MB", Better: "lower"},     // peak_rss_mb @ fleet-run
	{Name: "service.drain_ms", Unit: "ms", Better: "lower"},                   // wall_s @ fleet-run
	{Name: "obs.publish_ns", Unit: "ns", Better: "lower"},                     // call_ms_p95 @ fleet-run
	{Name: "obs.publish_ns_slow_sub", Unit: "ns", Better: "lower"},            // call_ms_p95 @ fleet-run
	{Name: "obs.dropped_frac", Unit: "ratio", Better: "lower"},                // none (events dropped / published in the layered run)
	{Name: "obs.write_metrics_us", Unit: "us", Better: "lower"},               // call_ms_p95 @ fleet-run
	{Name: "telemetry.sampler_overhead_frac", Unit: "ratio", Better: "lower"}, // ops_per_s @ fig4-base, fig4-wib
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is a value and how many observations it rests on.
type measured struct {
	v float64
	n int
}

// metricSet collects values against a table of definitions.
type metricSet map[string]measured

func (m metricSet) set(name string, v float64, n int) { m[name] = measured{v, n} }

// render turns the collected values into the reported form: every
// declared name with its unit and sample count, 0 where the run did not
// measure it.
func (m metricSet) render(defs []metricDef) (map[string]metric, map[string]int) {
	out := make(map[string]metric, len(defs))
	n := make(map[string]int, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name].v, Unit: d.Unit}
		n[d.Name] = m[d.Name].n
	}
	return out, n
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// ratio is num/den, 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
