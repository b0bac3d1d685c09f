package main

import (
	"bytes"

	"largewindow"
	"largewindow/internal/trace"
)

// workloadBuild times Source.Build over the given sources and records ms
// per program under metric.
func workloadBuild(metric string, srcs []largewindow.Workload, scale largewindow.Scale) probe {
	return func(lc *layerCtx) error {
		id := lc.tr.begin(root(0), "workload", "Source.Build", "")
		for _, src := range srcs {
			if _, err := src.Build(scale); err != nil {
				return err
			}
		}
		lc.m.set(metric, ratio(lc.tr.end(id)*1e3, float64(len(srcs))), len(srcs))
		return nil
	}
}

// traceRoundTrip records src into a trace, writes it to memory and reads
// it back: recording speed, container density, decode speed.
func traceRoundTrip(src largewindow.Workload, scale largewindow.Scale, maxInstr uint64) probe {
	return func(lc *layerCtx) error {
		var tr *trace.Trace
		var err error
		secs := lc.tr.call(root(0), "trace", "Record", src.Name(), func() { tr, err = trace.Record(src, scale, maxInstr) })
		if err != nil {
			return err
		}
		lc.m.set("trace.record_minstrs_per_s", ratio(float64(tr.Instrs)/1e6, secs), int(tr.Instrs))
		var buf bytes.Buffer
		if err := tr.Write(&buf, false); err != nil {
			return err
		}
		size := float64(buf.Len())
		lc.m.set("trace.bytes_per_instr", ratio(size, float64(tr.Instrs)), int(tr.Instrs))
		secs = lc.tr.call(root(0), "trace", "Read", src.Name(), func() { _, err = trace.Read(&buf) })
		lc.m.set("trace.read_mb_per_s", ratio(size/(1<<20), secs), 1)
		return err
	}
}
