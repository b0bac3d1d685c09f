// Command wibtrace runs a benchmark on the functional emulator and
// reports its architectural profile (instruction mix, branch behaviour,
// memory footprint), optionally disassembling the kernel or tracing the
// first N executed instructions. It is the debugging companion to wibsim.
//
// With -replay it instead decodes a JSON crash dump written by wibsim or
// experiments (-crash-dump) and pretty-prints the structured failure:
// kind, cycle, stalled instruction, the recent-event ring, the pipeline
// dump, and the code around the failing PC.
//
// With -dump it decodes a .wtr workload trace recorded by `wibsim
// -record-trace`, prints its header (name, identity, program size,
// instruction count, stream hash) and runs the structural validator.
//
// With -render it validates and summarizes a telemetry artifact written
// by `wibsim -telemetry/-trace-out/-kanata` or `experiments
// -telemetry-dir`, sniffing the format (JSONL sample series, Chrome
// trace-event JSON, or Kanata pipeline stream) from the file contents.
//
// With -fleet it stitches a distributed span log written by `wibserve
// -span-log` (coordinator queued/leased/persisting spans merged with
// every worker's attempt/executing spans, DESIGN.md §11) into one Chrome
// trace: a process row per fleet hop, a thread row per cell, correlated
// by the IDs minted at submit. Open the -o output in chrome://tracing or
// ui.perfetto.dev; validate it with `wibtrace -render`.
//
// Each mode reads only its own flags (a profile run: -bench, -scale and
// -instr); any other flag set is refused with exit 2, naming it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/obs"
	"largewindow/internal/telemetry"
	wtrace "largewindow/internal/trace"
	"largewindow/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the requested report
// to stdout and diagnostics to stderr, and returns the exit status (0 ok,
// 1 a failed operation, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wibtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("bench", "treeadd", "workload ref: kernel name, trace:PATH, or synth:SPEC")
		dumpT  = fs.String("dump", "", "decode and summarize a .wtr workload trace, then exit")
		scale  = fs.String("scale", "test", "kernel scale: test, run, full")
		instr  = fs.Uint64("instr", 10_000_000, "instruction budget")
		disasm = fs.Bool("disasm", false, "print the kernel's code and exit")
		trace  = fs.Uint64("trace", 0, "print the first N executed instructions")
		replay = fs.String("replay", "", "decode and print a JSON crash dump, then exit")
		render = fs.String("render", "", "validate and summarize a telemetry/trace file, then exit")
		fleet  = fs.String("fleet", "", "stitch a fleet span log (file or directory) into a Chrome trace, then exit")
		out    = fs.String("o", "", "output path for -fleet (default: <input>.trace.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A mode reads only the flags it names; any other flag set, a second
	// mode's among them, is refused rather than lost to this order.
	mode, reads := "a profile run", []string{"bench", "scale", "instr"}
	var op func() error // nil: a mode that profiles the workload
	switch {
	case *replay != "":
		mode, reads, op = "-replay", []string{"replay"}, func() error { return replayDump(stdout, *replay) }
	case *fleet != "":
		mode, reads, op = "-fleet", []string{"fleet", "o"}, func() error { return stitchFleet(stdout, *fleet, *out) }
	case *render != "":
		mode, reads, op = "-render", []string{"render"}, func() error { return renderArtifact(stdout, *render) }
	case *dumpT != "":
		mode, reads, op = "-dump", []string{"dump"}, func() error { return dumpTrace(stdout, *dumpT) }
	case *disasm:
		mode, reads = "-disasm", []string{"disasm", "bench", "scale"}
	case *trace > 0:
		mode, reads = "-trace", []string{"trace", "bench", "scale"}
	}
	ignored := ""
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(reads, f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(stderr, "%s ignores -%s\n", mode, ignored)
		return 2
	}
	if op == nil {
		src, sc, err := parseWorkload(*bench, *scale)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		op = func() error { return profile(stdout, stderr, src, sc, *instr, *trace, *disasm) }
	}
	if err := op(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// profile is the default mode: build the workload, then disassemble it,
// trace its first instructions, or run it on the functional emulator and
// print its architectural profile.
func profile(stdout, stderr io.Writer, src workload.Source, sc workload.Scale, instr, trace uint64, disasm bool) error {
	prog, err := src.Build(sc)
	if err != nil {
		return err
	}
	if disasm {
		for pc, in := range prog.Code {
			fmt.Fprintf(stdout, "%5d: %s\n", pc, isa.Disassemble(in))
		}
		return nil
	}
	m := emu.New(prog)
	if trace > 0 {
		return traceInstrs(stdout, m, trace)
	}
	n, err := m.Run(instr)
	if err != nil {
		fmt.Fprintf(stderr, "warning: %v\n", err)
	}
	fmt.Fprintf(stdout, "benchmark     %s (%s)\n", src.Name(), src.Suite())
	fmt.Fprintf(stdout, "static code   %d instructions\n", len(prog.Code))
	words := prog.NewMemoryImage().NonZeroWords()
	fmt.Fprintf(stdout, "initial data  %d words, heap %d KB\n", words, (words*8)/1024)
	fmt.Fprintf(stdout, "executed      %d instructions (halted=%v)\n", n, m.Halted)
	fmt.Fprintf(stdout, "cond branches %d (%.1f%% taken)\n", m.CondCount,
		100*float64(m.TakenCond)/float64(max(m.CondCount, 1)))
	fmt.Fprintf(stdout, "memory pages  %d touched\n", m.Mem.Pages())
	fmt.Fprintln(stdout, "class mix:")
	var mix []isa.Class // by count, equal counts in class order
	for c, n := range m.ClassMix {
		if n > 0 {
			mix = append(mix, isa.Class(c))
		}
	}
	sort.SliceStable(mix, func(i, j int) bool { return m.ClassMix[mix[i]] > m.ClassMix[mix[j]] })
	for _, c := range mix {
		fmt.Fprintf(stdout, "  %-8s %9d (%.1f%%)\n", c, m.ClassMix[c], 100*float64(m.ClassMix[c])/float64(m.InstrCount))
	}
	return nil
}

// parseWorkload resolves the -bench and -scale flags; an error is bad
// usage (exit 2), never a silent default.
func parseWorkload(bench, scale string) (workload.Source, workload.Scale, error) {
	src, err := workload.ParseRef(bench)
	if err != nil {
		return nil, 0, err
	}
	sc, err := workload.ParseScale(scale)
	return src, sc, err
}

// traceInstrs steps the machine up to n instructions, printing each one
// before it executes. A PC outside the code segment (a Jr to a wild
// address) is the emulator's error to report, so nothing is disassembled
// there.
func traceInstrs(w io.Writer, m *emu.Machine, n uint64) error {
	code := m.Prog.Code
	for i := uint64(0); i < n && !m.Halted; i++ {
		if m.PC < uint64(len(code)) {
			fmt.Fprintf(w, "%6d  pc=%-5d %s\n", i, m.PC, isa.Disassemble(code[m.PC]))
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// renderArtifact sniffs a telemetry artifact's format and prints a
// validation summary: Kanata streams by their header, Chrome traces by
// the traceEvents envelope, and JSONL sample series otherwise.
func renderArtifact(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch {
	case bytes.HasPrefix(data, []byte("Kanata")):
		st, err := telemetry.ReadKanata(bytes.NewReader(data))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "kanata stream     %s\n", path)
		fmt.Fprintf(w, "instructions      %d (%d retired, %d flushed)\n", st.Instructions, st.Retired, st.Flushed)
		fmt.Fprintf(w, "stage intervals   %d\n", st.StageStarts)
		fmt.Fprintf(w, "final cycle       %d\n", st.Cycles)
		return nil
	case bytes.Contains(firstLine(data), []byte("traceEvents")):
		st, err := telemetry.ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "chrome trace      %s\n", path)
		fmt.Fprintf(w, "events            %d over cycles [%d, %d]\n", st.Events, st.FirstCycle, st.LastCycle)
		var cats []string
		for c := range st.PerCat {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			fmt.Fprintf(w, "  %-12s %d\n", c, st.PerCat[c])
		}
		return nil
	default:
		samples, err := telemetry.ReadSamples(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			return fmt.Errorf("%s: empty sample series", path)
		}
		first, last := samples[0], samples[len(samples)-1]
		fmt.Fprintf(w, "telemetry series  %s\n", path)
		fmt.Fprintf(w, "samples           %d over cycles [%d, %d]\n", len(samples), first.Cycle, last.Cycle)
		var names []string
		for n := range last.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "counters          %d registered\n", len(names))
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %12d\n", n, last.Counters[n])
		}
		if commits, ok := last.Counters["core.commit.instrs"]; ok && last.Cycle > 0 {
			fmt.Fprintf(w, "overall IPC       %.4f\n", float64(commits)/float64(last.Cycle))
		}
		// A per-sample occupancy sparkline for the metric the paper cares
		// about most: WIB fill over time.
		if _, ok := last.Gauges["wib.occupancy"]; ok {
			fmt.Fprintf(w, "wib occupancy     ")
			for _, s := range samples {
				fmt.Fprintf(w, "%c", sparkChar(s.Gauges["wib.occupancy"], wibSeriesMax(samples)))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// stitchFleet reads one or more fleet span logs, prints a validation
// summary (cells, spans per lifecycle stage, recording hops, correlation
// consistency), and writes the stitched Chrome trace.
func stitchFleet(w io.Writer, path, out string) error {
	var spans []obs.Span
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.jsonl"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("wibtrace: no *.jsonl span logs under %s", path)
		}
		sort.Strings(files)
	}
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			return err
		}
		got, err := obs.ReadSpans(r)
		r.Close()
		if err != nil {
			return fmt.Errorf("wibtrace: %s: %w", f, err)
		}
		spans = append(spans, got...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("wibtrace: %s holds no spans (was the fleet traced? start wibserve with -span-log)", path)
	}
	sum := obs.StitchSummary(spans)
	fmt.Fprintf(w, "fleet span log    %s\n", path)
	fmt.Fprintf(w, "spans             %d across %d cells\n", sum.Spans, sum.Cells)
	fmt.Fprintf(w, "wall clock        %.3fs\n", float64(sum.LastUS-sum.FirstUS)/1e6)
	fmt.Fprintf(w, "hops              %s\n", strings.Join(sum.Sources, ", "))
	var stages []string
	for s := range sum.PerStage {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(w, "  %-12s %d\n", s, sum.PerStage[s])
	}
	if sum.CorrMismatch > 0 {
		fmt.Fprintf(w, "WARNING           %d cells carry inconsistent correlation IDs\n", sum.CorrMismatch)
	}
	if out == "" {
		out = path
		if info.IsDir() {
			out = filepath.Clean(path)
		}
		out += ".trace.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := obs.StitchChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "chrome trace      %s (open in chrome://tracing or ui.perfetto.dev)\n", out)
	return nil
}

// firstLine returns data up to the first newline (format sniffing only).
func firstLine(data []byte) []byte {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i]
	}
	return data
}

// wibSeriesMax finds the peak sampled WIB occupancy for sparkline scaling.
func wibSeriesMax(samples []telemetry.Sample) float64 {
	m := 1.0
	for _, s := range samples {
		if v := s.Gauges["wib.occupancy"]; v > m {
			m = v
		}
	}
	return m
}

// sparkChar maps v/max onto an eight-level block character.
func sparkChar(v, max float64) rune {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	i := int(v / max * float64(len(levels)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(levels) {
		i = len(levels) - 1
	}
	return levels[i]
}

// replayDump decodes a crash dump written by `wibsim -crash-dump` or
// `experiments -crash-dump` and prints everything a post-mortem needs.
func replayDump(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	se, err := core.DecodeSimError(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "crash dump        %s\n", path)
	fmt.Fprintf(w, "kind              %s\n", se.Kind)
	fmt.Fprintf(w, "message           %s\n", se.Msg)
	fmt.Fprintf(w, "cycle             %d\n", se.Cycle)
	fmt.Fprintf(w, "committed         %d instructions\n", se.Committed)
	fmt.Fprintf(w, "configuration     %s\n", se.Config)
	// A dump from a bare program (no registry build) carries no scale:
	// then neither the code listing nor the repro line can name one.
	sc, scErr := workload.ParseScale(se.Scale)
	if se.Bench != "" {
		if scErr != nil {
			fmt.Fprintf(w, "benchmark         %s; %v, so no code listing\n", se.Bench, scErr)
		} else {
			fmt.Fprintf(w, "benchmark         %s (scale %s)\n", se.Bench, se.Scale)
		}
	}
	if se.Seq != 0 {
		fmt.Fprintf(w, "instruction       seq %d, pc %d\n", se.Seq, se.PC)
	}
	if se.Transient {
		fmt.Fprintf(w, "transient         yes (environmental; retry before debugging)\n")
	}
	if st := se.Stall; st != nil {
		fmt.Fprintf(w, "stalled head      rob=%d seq=%d pc=%d %s\n", st.ROB, st.Seq, st.PC, st.Instr)
		fmt.Fprintf(w, "  stage           %s\n", st.Stage)
		fmt.Fprintf(w, "  waiting on      %s\n", st.Reason)
	}
	if len(se.Events) > 0 {
		fmt.Fprintf(w, "\nrecent pipeline events (oldest first):\n")
		for _, ev := range se.Events {
			fmt.Fprintf(w, "  %s\n", ev)
		}
	}
	// The dump names the benchmark: disassemble around the failing PC so
	// the post-mortem shows the code, not just an address.
	if spec, ok := workload.Get(se.Bench); ok && scErr == nil && (se.PC != 0 || se.Stall != nil) {
		pc := se.PC
		if pc == 0 && se.Stall != nil {
			pc = se.Stall.PC
		}
		prog := spec.Build(sc)
		if pc < uint64(len(prog.Code)) {
			lo := uint64(0)
			if pc > 10 {
				lo = pc - 10
			}
			hi := pc + 10
			if hi >= uint64(len(prog.Code)) {
				hi = uint64(len(prog.Code)) - 1
			}
			fmt.Fprintf(w, "\ncode around pc %d:\n", pc)
			for a := lo; a <= hi; a++ {
				marker := "  "
				if a == pc {
					marker = "=>"
				}
				fmt.Fprintf(w, "  %s %5d: %s\n", marker, a, isa.Disassemble(prog.Code[a]))
			}
		}
	}
	if se.Dump != "" {
		fmt.Fprintf(w, "\npipeline state at failure:\n%s\n", se.Dump)
	}
	if se.Stack != "" {
		fmt.Fprintf(w, "\ngoroutine stack (untyped panic):\n%s\n", se.Stack)
	}
	if se.Bench != "" {
		scaleFlag := ""
		if scErr == nil {
			scaleFlag = " -scale " + se.Scale
		}
		fmt.Fprintf(w, "\nreproduce with:\n  wibsim -bench %s%s -lockstep -dump\n", se.Bench, scaleFlag)
	}
	return nil
}

// dumpTrace decodes a .wtr workload trace, prints its header and
// validates it structurally. The container holds the program, not the
// dynamic stream; the default mode and -trace re-derive that.
func dumpTrace(w io.Writer, path string) error {
	tr, err := wtrace.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace         %s\n", path)
	fmt.Fprintf(w, "name          %s (%s)\n", tr.Name, tr.Suite)
	fmt.Fprintf(w, "source ref    %s\n", tr.Source)
	fmt.Fprintf(w, "identity      %s\n", tr.Identity())
	fmt.Fprintf(w, "program       %d static instrs, %d data words, entry pc %d\n",
		len(tr.Code), tr.Data.NonZeroWords(), tr.Entry)
	fmt.Fprintf(w, "recorded      %d instructions (halted=%v)\n", tr.Instrs, tr.Halted)
	fmt.Fprintf(w, "stream hash   %016x\n", tr.StreamHash)
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("structural validation FAILED: %w", err)
	}
	fmt.Fprintf(w, "validation    ok\n")
	fmt.Fprintf(w, "dynamic mix   wibtrace -bench trace:%s -instr %d (or -trace N to list them)\n", path, tr.Instrs)
	return nil
}
