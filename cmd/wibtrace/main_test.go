package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/golden"
	"largewindow/internal/isa"
	"largewindow/internal/obs"
	"largewindow/internal/service"
	"largewindow/internal/workload"
)

// wibtrace runs the command in-process and returns its exit status and
// both output streams.
func wibtrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestBadUsageExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-scale", "rnu"}, `unknown scale "rnu"`},
		{[]string{"-bench", "no-such-kernel"}, "no-such-kernel"},
		{[]string{"-trace", "many"}, "invalid value"},
	} {
		if code, stdout, stderr := wibtrace(tc.args...); code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestFailedOperationExitsOne: a file that is missing, or is not what the
// mode decodes, is a failed operation with the reason on stderr.
func TestFailedOperationExitsOne(t *testing.T) {
	notJSON := filepath.Join(t.TempDir(), "not.json")
	if err := os.WriteFile(notJSON, []byte("not a dump\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-replay", filepath.Join(t.TempDir(), "missing.json")},
		{"-replay", notJSON},
		{"-render", notJSON},
		{"-fleet", notJSON},
		{"-dump", notJSON},
	} {
		if code, stdout, stderr := wibtrace(args...); code != 1 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and a reason", args, code, stdout, stderr)
		}
	}
}

// TestReportsGolden pins -replay of a checked-in crash dump (treeadd on
// WIB/2048 under a 265-cycle watchdog: a stalled head, a recovery in the
// event ring, parked rows in the pipeline dump) and -render of the three
// telemetry artifacts of one short traced run, byte for byte. The inputs
// are files, so the reports move only when the renderer does.
func TestReportsGolden(t *testing.T) {
	for _, tc := range []struct{ mode, input string }{
		{"-replay", "treeadd_wib.crash.json"},
		{"-render", "treeadd_wib.telemetry.jsonl"},
		{"-render", "treeadd_wib.trace.json"},
		{"-render", "treeadd_wib.kanata"},
	} {
		code, stdout, stderr := wibtrace(tc.mode, filepath.Join("testdata", tc.input))
		if code != 0 || stderr != "" {
			t.Errorf("%s %s: exit %d, stderr %q", tc.mode, tc.input, code, stderr)
			continue
		}
		golden.CheckText(t, filepath.Join("testdata", tc.input+".golden"), stdout)
	}
}

// TestFleetStitchesCoordinatorSpanLog: -fleet on the span log an
// in-process coordinator wrote while a worker ran three cells reports
// every cell and both hops, and writes a Chrome trace that -render
// accepts — the distributed-tracing acceptance bar, end to end.
func TestFleetStitchesCoordinatorSpanLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "spans.jsonl")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	spans := obs.NewSpanLog(logFile)
	coord := service.NewCoordinator(service.CoordinatorOptions{Spans: spans})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := service.NewWorker(service.WorkerOptions{
		Server:   srv.URL,
		ID:       "stitch",
		PollWait: 100 * time.Millisecond,
		Exec: func(c campaign.Cell) (*campaign.Record, error) {
			return &campaign.Record{Config: c.Config.Name, Bench: c.Bench, Scale: c.Scale.String()}, nil
		},
	})
	done := make(chan struct{})
	go func() { defer close(done); worker.Run(ctx) }()
	client := service.NewClient(service.ClientOptions{Server: srv.URL, PollWait: 100 * time.Millisecond})
	for _, bench := range []string{"gzip", "art", "treeadd"} {
		cell := campaign.Cell{Config: core.DefaultConfig(), Bench: bench, Scale: workload.ScaleTest, MaxInstr: 5000}
		if _, err := client.Exec(cell); err != nil {
			t.Fatalf("Exec(%s): %v", bench, err)
		}
	}
	cancel()
	<-done
	if err := spans.Flush(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "fleet.trace.json")
	code, stdout, stderr := wibtrace("-fleet", logPath, "-o", out)
	if code != 0 || stderr != "" {
		t.Fatalf("-fleet: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		`(?m)^spans             \d+ across 3 cells$`,
		`(?m)^hops              coordinator, worker:stitch$`,
		`(?m)^  executing    3$`,
		`(?m)^chrome trace      ` + regexp.QuoteMeta(out) + ` `,
	} {
		if !regexp.MustCompile(want).MatchString(stdout) {
			t.Errorf("-fleet report has no line matching %s:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "WARNING") {
		t.Errorf("-fleet reports inconsistent correlation IDs:\n%s", stdout)
	}
	code, stdout, stderr = wibtrace("-render", out)
	if code != 0 || stderr != "" || !strings.HasPrefix(stdout, "chrome trace      "+out+"\n") {
		t.Errorf("-render of the stitched trace: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestTraceInstrsWildJump: a Jr to an address outside the code segment
// ends the trace with the emulator's error, after printing the
// instructions that did execute.
func TestTraceInstrsWildJump(t *testing.T) {
	b := isa.NewBuilder("wild")
	b.Li(isa.T0, 1000)
	b.Jr(isa.T0)
	b.Halt()
	var out strings.Builder
	err := traceInstrs(&out, emu.New(b.MustBuild()), 10)
	if err == nil || !strings.Contains(err.Error(), "pc 1000 outside code segment") {
		t.Fatalf("err = %v, want the emulator's pc-bounds error", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "pc=1") {
		t.Errorf("printed %q, want the two executed instructions", out.String())
	}
}

// TestTraceInstrsStopsAtHaltAndBudget: the trace ends at Halt, or after n
// instructions, whichever comes first.
func TestTraceInstrsStopsAtHaltAndBudget(t *testing.T) {
	b := isa.NewBuilder("short")
	b.Li(isa.T0, 1)
	b.Addi(isa.T0, isa.T0, 1)
	b.Halt()
	prog := b.MustBuild()
	for _, tc := range []struct {
		n     uint64
		lines int
	}{{2, 2}, {10, 3}} {
		var out strings.Builder
		if err := traceInstrs(&out, emu.New(prog), tc.n); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(out.String(), "\n"); got != tc.lines {
			t.Errorf("n=%d printed %d lines, want %d:\n%s", tc.n, got, tc.lines, out.String())
		}
	}
}

// oneProgram is a workload.Source over a program built in the test.
type oneProgram struct{ prog *isa.Program }

func (s oneProgram) Name() string                               { return s.prog.Name }
func (s oneProgram) Suite() workload.Suite                      { return workload.SuiteExternal }
func (s oneProgram) Ref() string                                { return "test:" + s.prog.Name }
func (s oneProgram) Identity() string                           { return s.Ref() }
func (s oneProgram) Build(workload.Scale) (*isa.Program, error) { return s.prog, nil }

// TestProfileClassMixOrderIsStable: the class mix is sorted by count, and
// classes with equal counts used to print in the emulator's map order —
// a different report from one run to the next. Fifty profiles of a
// program whose classes tie must be the same bytes, ties in class order.
func TestProfileClassMixOrderIsStable(t *testing.T) {
	b := isa.NewBuilder("ties")
	w := b.Word(7)
	b.LiAddr(isa.T0, w)
	b.Ld(isa.T1, isa.T0, 0)
	b.St(isa.T1, isa.T0, 8)
	b.Fcvt(isa.F0, isa.T1)
	b.Fadd(isa.F0, isa.F0, isa.F0)
	b.Halt()
	src := oneProgram{b.MustBuild()}
	var first string
	for i := 0; i < 50; i++ {
		var out, errOut strings.Builder
		if err := profile(&out, &errOut, src, workload.ScaleTest, 1000, 0, false); err != nil || errOut.Len() != 0 {
			t.Fatalf("profile: %v, stderr %q", err, errOut.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("profile %d differs from the first:\n%s\nfirst:\n%s", i, out.String(), first)
		}
	}
	_, mix, _ := strings.Cut(first, "class mix:\n")
	var classes []string
	for _, line := range strings.Split(strings.TrimSpace(mix), "\n") {
		classes = append(classes, strings.Fields(line)[0])
	}
	if got := strings.Join(classes, " "); got != "fpadd ialu load store halt" {
		t.Errorf("class mix order = %q, want fpadd (2) first, then the four singles in class order", got)
	}
}

// TestParseWorkloadRejectsUnknownScale: -scale rnu used to profile at
// test scale without a word; it is bad usage that names the valid scales.
func TestParseWorkloadRejectsUnknownScale(t *testing.T) {
	_, _, err := parseWorkload("treeadd", "rnu")
	if err == nil || err.Error() != `unknown scale "rnu" (valid: test, run, full)` {
		t.Errorf("-scale rnu: err = %v, want the unknown-scale error", err)
	}
	if _, _, err := parseWorkload("no-such-kernel", "test"); err == nil {
		t.Error("-bench no-such-kernel accepted")
	}
	src, sc, err := parseWorkload("treeadd", "run")
	if err != nil || src.Name() != "treeadd" || sc != workload.ScaleRun {
		t.Errorf("-bench treeadd -scale run = %v, %v, %v", src, sc, err)
	}
}
