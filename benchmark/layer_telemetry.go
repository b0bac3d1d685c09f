package main

import (
	"context"
	"errors"
	"io"
	"time"

	"largewindow"
	"largewindow/internal/core"
	"largewindow/internal/telemetry"
)

// telemetrySampler measures what an attached cycle sampler costs the
// detailed core: the same run of prog with a collector sampling every 500
// cycles into io.Discard over the run without, medians of three
// alternating pairs.
func telemetrySampler(prog *largewindow.Program, cfg core.Config, budget uint64) probe {
	return func(lc *layerCtx) error {
		run := func(attach bool) (float64, error) {
			p, err := core.New(cfg, prog)
			if err != nil {
				return 0, err
			}
			var col *telemetry.Collector
			if attach {
				col = telemetry.NewCollector(io.Discard, 500)
				p.AttachTelemetry(col)
			}
			t0 := time.Now()
			st, err := p.RunContext(context.Background(), budget, 0)
			secs := time.Since(t0).Seconds()
			if err != nil && !errors.Is(err, core.ErrBudget) {
				return 0, err
			}
			if col != nil {
				if err := col.Close(st.Cycles); err != nil {
					return 0, err
				}
			}
			return secs, nil
		}
		const pairs = 3
		var with, without []float64
		id := lc.tr.begin(root(0), "telemetry", "sampler on/off", prog.Name)
		for i := 0; i < pairs; i++ {
			off, err := run(false)
			if err != nil {
				return err
			}
			on, err := run(true)
			if err != nil {
				return err
			}
			with, without = append(with, on), append(without, off)
		}
		lc.tr.end(id)
		lc.m.set("telemetry.sampler_overhead_frac", ratio(median(with), median(without))-1, pairs)
		return nil
	}
}
