package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"largewindow/internal/core"
)

// experiments runs the command in-process and returns its exit status
// and both output streams.
func experiments(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun is experiments for a run that has to succeed.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := experiments(args...)
	if code != 0 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr)
	}
	return stdout, stderr
}

// TestResumeExecutesNothing is the cross-process resume gate for each
// kind of campaign — plain, sampled (the plan is part of the cell
// identity) and model-pruned exploration (the audit slice is seeded, so
// it re-selects the same cells): a first run persists into a fresh
// cache, and a second run over it with -resume must execute zero cells
// and render byte-identical tables.
func TestResumeExecutesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name     string
		args     []string
		firstErr string // regexp the first run's stderr must match
		firstOut string // substring the first run's stdout must hold
	}{
		{name: "campaign", args: []string{"-run", "fig4", "-bench", "gzip,art,treeadd", "-instr", "50000"},
			firstErr: `campaign: 12 cells — 12 executed, 0 cached, 0 failed`, firstOut: "Figure 4 (Olden)"},
		{name: "sampled", args: []string{"-run", "fig4", "-bench", "gzip,art,treeadd", "-sample", "n=8,len=500,warm=500,seed=3,random"},
			firstErr: `campaign: 12 cells — 12 executed`, firstOut: "Figure 4 (Olden)"},
		{name: "explore", args: []string{"-explore", "-bench", "gzip,art,mst", "-instr", "60000"},
			firstErr: `model: \d+ pruned / \d+ audited`, firstOut: "audit slice model error:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args, "-scale", "test", "-parallel", "4", "-progress=false", "-cache-dir", t.TempDir())
			firstOut, firstErr := mustRun(t, args...)
			if !regexp.MustCompile(tc.firstErr).MatchString(firstErr) {
				t.Errorf("first run's summary does not match %q:\n%s", tc.firstErr, firstErr)
			}
			if !strings.Contains(firstOut, tc.firstOut) {
				t.Errorf("first run's tables do not hold %q:\n%s", tc.firstOut, firstOut)
			}
			secondOut, secondErr := mustRun(t, append(args, "-resume")...)
			if !strings.Contains(secondErr, " 0 executed") {
				t.Errorf("resumed run recomputed cells:\n%s", secondErr)
			}
			if secondOut != firstOut {
				t.Errorf("resumed run rendered different tables:\n%s\nfirst run:\n%s", secondOut, firstOut)
			}
		})
	}
}

// readTree returns every file under root, keyed by its relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckpointsSharedAcrossConfigs: a fig4 sweep (4 configs × 2
// benchmarks) with a functional skip builds exactly one checkpoint per
// benchmark and shares it across every config; two independent runs
// persist byte-identical record and checkpoint stores; and a re-run
// against a warm checkpoint store (records wiped) re-executes no
// functional pass.
func TestCheckpointsSharedAcrossConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep := func(cache string) (stdout, stderr string) {
		return mustRun(t, "-run", "fig4", "-bench", "gzip,art", "-scale", "test", "-instr", "2000", "-skip", "2000",
			"-parallel", "4", "-progress=false", "-cache-dir", cache)
	}
	c1, c2 := filepath.Join(t.TempDir(), "c1"), filepath.Join(t.TempDir(), "c2")
	firstOut, firstErr := sweep(c1)
	if !strings.Contains(firstErr, "checkpoints: 2 built / 6 reused") {
		t.Errorf("checkpoints not shared across configs:\n%s", firstErr)
	}
	sweep(c2)
	for _, sub := range []string{"ca", "ckpt"} {
		a, b := readTree(t, filepath.Join(c1, sub)), readTree(t, filepath.Join(c2, sub))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d files in one run's store, %d in the other's", sub, len(a), len(b))
		}
		for name, data := range a {
			if b[name] != data {
				t.Errorf("%s/%s differs between two runs of the same sweep", sub, name)
			}
		}
	}
	if err := os.RemoveAll(filepath.Join(c1, "ca")); err != nil {
		t.Fatal(err)
	}
	thirdOut, thirdErr := sweep(c1)
	if !strings.Contains(thirdErr, "checkpoints: 0 built / 8 reused") {
		t.Errorf("warm checkpoint store re-ran the functional pass:\n%s", thirdErr)
	}
	if thirdOut != firstOut {
		t.Errorf("checkpoint-cache-hit run rendered different tables:\n%s\nfirst run:\n%s", thirdOut, firstOut)
	}
}

// TestFailedCellsLeaveCrashDumps forces every cell to miss its deadline,
// on the table path and on the exploration path: both must exit 1, print
// the campaign summary and the failure table, and leave one replayable
// crash dump per failed cell under -crash-dump.
func TestFailedCellsLeaveCrashDumps(t *testing.T) {
	for name, mode := range map[string][]string{
		"tables":  {"-run", "table2"},
		"explore": {"-explore"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "dumps")
			args := append(mode, "-bench", "treeadd", "-scale", "test", "-instr", "2000", "-progress=false",
				"-deadline", "1ns", "-crash-dump", dir)
			code, _, stderr := experiments(args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			for _, want := range []string{"campaign: ", "Failed runs", "crash dump written to " + dir} {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr does not hold %q:\n%s", want, stderr)
				}
			}
			dumps, _ := filepath.Glob(filepath.Join(dir, "*-treeadd.json"))
			if len(dumps) == 0 {
				t.Fatalf("no crash dump under %s", dir)
			}
			for _, path := range dumps {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if se, err := core.DecodeSimError(data); err != nil || se.Bench != "treeadd" {
					t.Errorf("%s does not replay: %v", path, err)
				}
				if strings.ContainsAny(filepath.Base(path), "/ ") {
					t.Errorf("crash dump name %q is not sanitised", filepath.Base(path))
				}
			}
		})
	}
}

// TestBadUsageExitsTwo: input the command cannot act on is an error on
// stderr and exit status 2, never a silent default or an empty success.
func TestBadUsageExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-run", "fig44"}, `unknown experiment "fig44" (valid: all, fig1, table2, fig4,`},
		{[]string{"-run", "fig4,"}, `unknown experiment ""`},
		{[]string{"-scale", "tset"}, `unknown scale "tset"`},
		{[]string{"-bench", "nope"}, `unknown benchmark "nope"`},
		{[]string{"-workload", "synth:nope=1"}, "bad -workload ref"},
		{[]string{"-sample", "n=0,len=10"}, "sample"},
		{[]string{"-resume"}, "-resume needs -cache-dir"},
		{[]string{"-watch"}, "-watch needs -server"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		code, stdout, stderr := experiments(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, no tables and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

func TestListNamesEveryExperiment(t *testing.T) {
	stdout, _ := mustRun(t, "-list")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 10 || !strings.HasPrefix(lines[0], "fig1     Figure 1:") || !strings.HasPrefix(lines[9], "slice    Section 6") {
		t.Errorf("-list printed:\n%s", stdout)
	}
}
