package main

import (
	"bytes"
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

func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-config", "nope"},
		{"-bench", "nope"},
		{"-sample", "n=0,len=10"},
		{"-scale", "tset"}, // used to run silently at "run" scale
		{"-no-such-flag"},
	} {
		if code, stdout, _ := wibsim(args...); code != 2 || stdout != "" {
			t.Errorf("%v: exit %d (stdout %q), want 2 and no report", args, code, stdout)
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
