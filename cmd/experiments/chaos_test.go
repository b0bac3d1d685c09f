package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"largewindow/internal/service"
)

// TestChaosGateRealProcesses is the service's acceptance bar (DESIGN.md
// §10) on real processes: the same sweep run serially and on a wibserve
// coordinator with three wibworker processes — one of them kill -9'd
// while it holds a lease — must complete, print the same tables, leave
// byte-identical record stores on the serial, coordinator and client
// side, stitch into a valid fleet trace, and resume from the fleet's
// store executing zero cells. TestChaosSweepByteIdentical covers the
// same ground in one process; this is the part that needs SIGKILL, real
// sockets and four binaries.
func TestChaosGateRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds four binaries and runs a fleet of processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, "bin", name) }
	build := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, "bin")+string(filepath.Separator),
		"./cmd/experiments", "./cmd/wibserve", "./cmd/wibworker", "./cmd/wibtrace")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Cells long enough (run scale, ~0.1–0.3 s each) that the campaign is
	// still going when the victim dies.
	sweep := []string{"-run", "fig4", "-bench", "gzip,art,treeadd", "-scale", "run", "-instr", "300000",
		"-parallel", "4", "-progress=false"}
	runExperiments := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.CommandContext(ctx, bin("experiments"), slices.Concat(sweep, extra)...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments %v: %v\nstderr:\n%s", extra, err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	serialOut, _ := runExperiments("-cache-dir", filepath.Join(dir, "serial"))

	// Long-running processes: started here, killed at cleanup if the test
	// bails out early, their stderr kept for the failure message.
	start := func(name string, args ...string) (*exec.Cmd, *bytes.Buffer, io.Reader) {
		t.Helper()
		cmd := exec.CommandContext(ctx, bin(name), args...)
		var errOut bytes.Buffer
		cmd.Stderr = &errOut
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		return cmd, &errOut, stdout
	}
	spanLog := filepath.Join(dir, "spans.jsonl")
	serve, serveErr, serveOut := start("wibserve", "-addr", "127.0.0.1:0", "-cache-dir", filepath.Join(dir, "dist"),
		"-lease-ttl", "2s", "-span-log", spanLog)
	line, err := bufio.NewReader(serveOut).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "wibserve listening on ")
	if err != nil || !ok {
		t.Fatalf("wibserve's first line is %q (%v); stderr:\n%s", line, err, serveErr.String())
	}
	url := "http://" + addr
	worker := func(id string) *exec.Cmd {
		cmd, _, _ := start("wibworker", "-server", url, "-id", id, "-parallel", "2")
		return cmd
	}

	// The victim is the only worker at first, so the first active lease is
	// its own; the queue stays hot behind it (4 cells in flight from the
	// client, 2 slots here), so it holds one when it dies.
	victim := worker("chaos-1")
	var distOut, distErr bytes.Buffer
	dist := exec.CommandContext(ctx, bin("experiments"), slices.Concat(sweep,
		[]string{"-server", url, "-cache-dir", filepath.Join(dir, "client")})...)
	dist.Stdout, dist.Stderr = &distOut, &distErr
	if err := dist.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dist.Process.Kill() })
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	stats := func() (st service.StatsResponse) {
		t.Helper()
		if err := json.Unmarshal(get("/api/v1/stats"), &st); err != nil {
			t.Fatalf("stats: %v", err)
		}
		return st
	}
	for stats().ActiveLeases == 0 {
		if ctx.Err() != nil {
			t.Fatalf("the victim never leased a cell; coordinator stderr:\n%s", serveErr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Live scrape while the fleet is mid-campaign: the exposition must
	// parse (non-empty, first line a comment) even under churn.
	if metrics := get("/metrics"); !bytes.HasPrefix(metrics, []byte("#")) {
		t.Errorf("/metrics exposition malformed mid-campaign:\n%.300s", metrics)
	}
	victim.Process.Kill() // SIGKILL: no completion, no further heartbeat
	victim.Wait()
	orphaned := stats().ActiveLeases
	survivors := []*exec.Cmd{worker("chaos-2"), worker("chaos-3")}

	if err := dist.Wait(); err != nil {
		t.Fatalf("distributed sweep did not survive a killed worker: %v\nstderr:\n%s\ncoordinator stderr:\n%s",
			err, distErr.String(), serveErr.String())
	}
	for _, cmd := range append(survivors, serve) {
		cmd.Process.Signal(os.Interrupt)
	}
	for _, cmd := range append(survivors, serve) {
		if err := cmd.Wait(); err != nil {
			t.Errorf("%s after SIGINT: %v", filepath.Base(cmd.Path), err)
		}
	}

	// The coordinator recovered the victim's cells by lease expiry alone.
	m := regexp.MustCompile(`(?m)^coordinator: 12 completed, 0 failed, .* (\d+) lease expiries$`).FindStringSubmatch(distErr.String())
	if m == nil {
		t.Fatalf("no coordinator line with 12 completed cells on the client's stderr:\n%s", distErr.String())
	}
	if expiries, _ := strconv.Atoi(m[1]); orphaned == 0 || expiries < orphaned {
		t.Errorf("the victim died holding %d leases and the coordinator reaped %d; want at least one, all reaped", orphaned, expiries)
	}
	t.Log(m[0])

	if distOut.String() != serialOut {
		t.Errorf("fleet-rendered tables differ from the serial run\n got:\n%s\nwant:\n%s", distOut.String(), serialOut)
	}
	want := readTree(t, filepath.Join(dir, "serial", "ca"))
	for _, store := range []string{"dist", "client"} {
		if got := readTree(t, filepath.Join(dir, store, "ca")); len(want) != 12 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s store holds %d records, the serial store %d, or their bytes differ", store, len(got), len(want))
		}
	}

	// Stitch the fleet's span log into one Chrome trace and validate it
	// with the repo's own trace reader.
	trace := filepath.Join(dir, "fleet.trace.json")
	if out, err := exec.CommandContext(ctx, bin("wibtrace"), "-fleet", spanLog, "-o", trace).CombinedOutput(); err != nil ||
		!regexp.MustCompile(`(?m)^spans +\d+ across 12 cells$`).Match(out) {
		t.Errorf("fleet trace did not stitch 12 cells: %v\n%s", err, out)
	}
	if out, err := exec.CommandContext(ctx, bin("wibtrace"), "-render", trace).CombinedOutput(); err != nil {
		t.Errorf("stitched fleet trace fails the trace validator: %v\n%s", err, out)
	}

	if _, stderr := runExperiments("-cache-dir", filepath.Join(dir, "dist"), "-resume"); !strings.Contains(stderr, " 0 executed") {
		t.Errorf("resume from the fleet's store recomputed cells:\n%s", stderr)
	}
}
