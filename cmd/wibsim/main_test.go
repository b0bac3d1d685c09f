package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/golden"
	"largewindow/internal/telemetry"
)

// wibsim runs the command in-process and returns its exit status and
// both output streams.
func wibsim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestReportGolden pins the plain report byte for byte on both machines:
// it carries no wall-clock value, so every line is simulated state.
func TestReportGolden(t *testing.T) {
	for _, config := range []string{"base", "wib"} {
		code, stdout, stderr := wibsim("-bench", "gzip", "-scale", "test", "-instr", "20000", "-config", config)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", config, code, stderr)
		}
		golden.CheckText(t, filepath.Join("testdata", "gzip_"+config+".golden"), stdout)
	}
}

// TestRecordTraceReplaysLikeTheKernel: -record-trace writes a container
// whose replay prints the kernel's own golden report, byte for byte.
func TestRecordTraceReplaysLikeTheKernel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gzip.wtr")
	code, stdout, stderr := wibsim("-bench", "gzip", "-scale", "test", "-instr", "0", "-record-trace", path)
	if code != 0 || stderr != "" {
		t.Fatalf("-record-trace: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		`(?m)^instructions      \d+ \(halted=true\) in \S+$`,
		`(?m)^trace             ` + regexp.QuoteMeta(path) + ` \(\d+ bytes\)$`,
		`(?m)^program           \d+ static instrs, \d+ data words$`,
		`(?m)^replay ref        trace:` + regexp.QuoteMeta(path) + `$`,
	} {
		if !regexp.MustCompile(want).MatchString(stdout) {
			t.Errorf("-record-trace report has no line matching %s:\n%s", want, stdout)
		}
	}
	code, stdout, stderr = wibsim("-bench", "trace:"+path, "-scale", "test", "-instr", "20000", "-config", "base")
	if code != 0 || stderr != "" {
		t.Fatalf("replay: exit %d, stderr %q", code, stderr)
	}
	golden.CheckText(t, filepath.Join("testdata", "gzip_base.golden"), stdout)
}

func TestSkipMeasureReport(t *testing.T) {
	code, stdout, stderr := wibsim("-bench", "gzip", "-scale", "test", "-skip", "5000", "-measure", "3000")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		`(?m)^functional skip   5000 instructions fast-forwarded in \S+$`,
		`(?m)^committed         300\d$`,
		`(?m)^cycles            \d+$`,
	} {
		if !regexp.MustCompile(want).MatchString(stdout) {
			t.Errorf("report has no line matching %s:\n%s", want, stdout)
		}
	}
}

func TestSampledReport(t *testing.T) {
	code, stdout, stderr := wibsim("-bench", "gzip", "-scale", "test", "-config", "wib",
		"-sample", "n=4,len=500,warm=100,seed=7,random")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		`(?m)^configuration     WIB/2048$`,
		`(?m)^sampling plan     n=4,len=500,warm=100,seed=7,random$`,
		`(?m)^intervals         4 measured of 4 planned$`,
		`(?m)^IPC               \d\.\d{4} ± \d\.\d{4} \(95% CI, stddev \d\.\d{4}\)$`,
		`(?m)^L1D miss ratio    0\.\d{4} \(measured windows\)$`,
	} {
		if !regexp.MustCompile(want).MatchString(stdout) {
			t.Errorf("report has no line matching %s:\n%s", want, stdout)
		}
	}
}

// TestFailureLeavesReplayableCrashDump forces a deadlock verdict on the
// plain and the sampled path: both must exit 1, print the pipeline dump
// -dump asked for, and leave a crash dump that decodes the way `wibtrace
// -replay` decodes it, labelled with the workload it came from.
func TestFailureLeavesReplayableCrashDump(t *testing.T) {
	for name, extra := range map[string][]string{
		"plain":   nil,
		"sampled": {"-sample", "n=4,len=500,warm=100"},
	} {
		t.Run(name, func(t *testing.T) {
			dump := filepath.Join(t.TempDir(), "crash.json")
			args := append([]string{"-bench", "gzip", "-scale", "test", "-watchdog", "1", "-dump", "-crash-dump", dump}, extra...)
			code, stdout, stderr := wibsim(args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("failed run printed a report:\n%s", stdout)
			}
			if !strings.Contains(stderr, "[deadlock]") || !strings.Contains(stderr, "crash dump written to "+dump) {
				t.Errorf("stderr names neither the failure nor the dump:\n%s", stderr)
			}
			if !regexp.MustCompile(`(?m)^cycle=\d+ committed=\d+ rob=`).MatchString(stderr) {
				t.Errorf("-dump printed no pipeline state:\n%s", stderr)
			}
			data, err := os.ReadFile(dump)
			if err != nil {
				t.Fatal(err)
			}
			se, err := core.DecodeSimError(data)
			if err != nil {
				t.Fatalf("crash dump does not replay: %v", err)
			}
			if se.Kind != core.KindDeadlock || se.Bench != "gzip" || se.Scale != "test" || se.Dump == "" {
				t.Errorf("crash dump kind=%s bench=%q scale=%q dump=%d bytes", se.Kind, se.Bench, se.Scale, len(se.Dump))
			}
		})
	}
}

// TestBadUsageExitsTwo: input the command cannot act on, or would
// ignore, is an error on stderr naming it and exit status 2, never a
// silent default or a run that differs from the one asked for.
func TestBadUsageExitsTwo(t *testing.T) {
	dir := t.TempDir()
	sampled := []string{"-bench", "gzip", "-scale", "test", "-sample", "n=4,len=500"}
	predict := []string{"-bench", "gzip", "-scale", "test", "-predict"}
	record := []string{"-bench", "gzip", "-scale", "test", "-instr", "5000", "-record-trace", filepath.Join(dir, "g.wtr")}
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-config", "nope"}, `unknown config "nope"`},
		{[]string{"-bench", "nope"}, `unknown benchmark "nope"`},
		{[]string{"-sample", "n=0,len=10"}, "plan needs at least one interval"},
		{[]string{"-scale", "tset"}, `unknown scale "tset"`}, // used to run silently at "run" scale
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{append(sampled, "-skip", "5000", "-telemetry", "-telemetry-out", filepath.Join(dir, "t.jsonl"), "-trace-out", filepath.Join(dir, "tr.json")), "-sample ignores -skip"},
		{append(sampled, "-measure", "3000"), "-sample ignores -measure"},
		{append(sampled, "-instr", "3000"), "-sample ignores -instr"},
		{append(sampled, "-telemetry"), "-sample ignores -telemetry"},
		{append(sampled, "-telemetry-out", filepath.Join(dir, "t.jsonl")), "-sample ignores -telemetry-out"},
		{append(sampled, "-sample-interval", "500"), "-sample ignores -sample-interval"},
		{append(sampled, "-trace-out", filepath.Join(dir, "tr.json")), "-sample ignores -trace-out"},
		{append(sampled, "-kanata", filepath.Join(dir, "k.kanata")), "-sample ignores -kanata"},
		{append(sampled, "-pipetrace", "64"), "-sample ignores -pipetrace"},
		{append(predict, "-sample", "n=4,len=500"), "-predict ignores -sample"},
		{append(predict, "-skip", "5000"), "-predict ignores -skip"},
		{append(predict, "-pprof", filepath.Join(dir, "cpu.prof")), "-predict ignores -pprof"},
		{append(predict, "-deadline", "1s"), "-predict ignores -deadline"},
		{append(predict, "-cycles", "1000"), "-predict ignores -cycles"},
		{append(predict, "-telemetry", "-telemetry-out", filepath.Join(dir, "t.jsonl")), "-predict ignores -telemetry"},
		{append(predict, "-trace-out", filepath.Join(dir, "tr.json")), "-predict ignores -trace-out"},
		{append(predict, "-crash-dump", filepath.Join(dir, "c.json")), "-predict ignores -crash-dump"},
		{append(predict, "-lockstep"), "-predict ignores -lockstep"},
		{append(predict, "-policy", "rr-load"), "-predict ignores -policy"},
		{append(predict, "-instr", "5000", "-measure", "3000"), "-measure ignores -instr"},
		{[]string{"-bench", "gzip", "-scale", "test", "-instr", "5000", "-measure", "3000"}, "-measure ignores -instr"}, // used to commit 3,006 instructions
		{append(record, "-sample", "n=4,len=500"), "-record-trace ignores -sample"},
		{append(record, "-predict"), "-record-trace ignores -predict"},
		{append(record, "-config", "wib"), "-record-trace ignores -config"},
		{append(record, "-skip", "5000"), "-record-trace ignores -skip"},
		{append(record, "-measure", "3000"), "-record-trace ignores -measure"},
		{append(record, "-cycles", "1000"), "-record-trace ignores -cycles"},
		{append(record, "-telemetry", "-telemetry-out", filepath.Join(dir, "t.jsonl")), "-record-trace ignores -telemetry"},
		{append(record, "-sample-interval", "500"), "-record-trace ignores -sample-interval"},
		{append(record, "-trace-out", filepath.Join(dir, "tr.json")), "-record-trace ignores -trace-out"},
		{append(record, "-kanata", filepath.Join(dir, "k.kanata")), "-record-trace ignores -kanata"},
		{append(record, "-pipetrace", "64"), "-record-trace ignores -pipetrace"},
		{append(record, "-pprof", filepath.Join(dir, "cpu.prof")), "-record-trace ignores -pprof"},
		{append(record, "-lockstep"), "-record-trace ignores -lockstep"},
	} {
		code, stdout, stderr := wibsim(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, no report and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("refused runs wrote %d files", len(files))
	}
}

// TestUsageDocNamesEveryFlag: the package doc's usage block names every
// flag -h lists, so the two cannot drift apart.
func TestUsageDocNamesEveryFlag(t *testing.T) {
	code, stdout, stderr := wibsim("-h")
	if code != 2 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, usage, _ := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	usage, _, _ = strings.Cut(usage, "\n\n")
	names := regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(stderr, -1)
	if usage == "" || len(names) == 0 {
		t.Fatalf("no usage block (%d bytes) or no flags (%d)", len(usage), len(names))
	}
	for _, n := range names {
		if !regexp.MustCompile(`(^|[\s\[])-` + regexp.QuoteMeta(n[1]) + `([\s\]=]|$)`).MatchString(usage) {
			t.Errorf("-%s is not named in the package doc's usage block", n[1])
		}
	}
}

// TestTelemetryArtifacts: a telemetry-sampled WIB run leaves a JSONL
// series, a Chrome trace and a Kanata stream that the readers behind
// `wibtrace -render` accept, with content in each.
func TestTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	series, chrome, kanata := filepath.Join(dir, "mgrid.jsonl"), filepath.Join(dir, "mgrid.trace.json"), filepath.Join(dir, "mgrid.kanata")
	code, _, stderr := wibsim("-bench", "mgrid", "-scale", "test", "-config", "wib", "-instr", "200000",
		"-telemetry", "-telemetry-out", series, "-sample-interval", "500", "-trace-out", chrome, "-kanata", kanata)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	open := func(path string) *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	samples, err := telemetry.ReadSamples(open(series))
	if err != nil || len(samples) < 2 || samples[len(samples)-1].Counters["core.commit.instrs"] == 0 {
		t.Errorf("sample series: %d samples, err %v", len(samples), err)
	}
	if st, err := telemetry.ReadChromeTrace(open(chrome)); err != nil || st.Events == 0 {
		t.Errorf("chrome trace: %+v, err %v", st, err)
	}
	if st, err := telemetry.ReadKanata(open(kanata)); err != nil || st.Retired == 0 {
		t.Errorf("kanata stream: %+v, err %v", st, err)
	}
}

// TestLifecycleArtifactsGolden pins the three renderings of the core's
// lifecycle ring byte for byte on a WIB run: the -pipetrace timeline
// (after the plain report), the Chrome trace and the Kanata stream. The
// last 64 instructions of this window include WIB trips and squashes.
func TestLifecycleArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	chrome, kanata := filepath.Join(dir, "gzip.trace.json"), filepath.Join(dir, "gzip.kanata")
	code, stdout, stderr := wibsim("-bench", "gzip", "-scale", "test", "-instr", "10000", "-config", "wib",
		"-pipetrace", "64", "-trace-out", chrome, "-kanata", kanata)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	golden.CheckText(t, filepath.Join("testdata", "gzip_wib.pipetrace.golden"), stdout)
	for _, f := range []struct{ path, golden string }{
		{chrome, "gzip_wib.trace.json.golden"},
		{kanata, "gzip_wib.kanata.golden"},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		golden.CheckText(t, filepath.Join("testdata", f.golden), string(data))
	}
}
