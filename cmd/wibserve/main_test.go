package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/service"
	"largewindow/internal/workload"
)

// lockedBuffer is a stderr the command's goroutines (logger, exit line)
// and the test can share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestBadUsageExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-cache-dir is required"},
		{[]string{"-cache-dir", t.TempDir(), "-log-format", "yaml"}, `unknown log format "yaml"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestServeSmoke drives the whole command in-process: it binds an
// ephemeral port and prints it, two lease slots (what `wibworker
// -parallel 2` mounts: one harness session's ExecCell) execute three
// test-scale cells a client submits, and cancelling the context — what
// SIGTERM does in main — drains, persists and exits 0.
func TestServeSmoke(t *testing.T) {
	cacheDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout, stdoutW := io.Pipe()
	var stderr lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache-dir", cacheDir}, stdoutW, &stderr)
		stdoutW.Close()
	}()
	first, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line: %v; stderr:\n%s", err, stderr.String())
	}
	go io.Copy(io.Discard, stdout)
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "wibserve listening on ")
	if !ok {
		t.Fatalf("first stdout line %q is not the listening line", first)
	}
	url := "http://" + addr

	session := harness.NewSession(harness.Options{})
	slotCtx, stopSlots := context.WithCancel(ctx)
	var slots sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := service.NewWorker(service.WorkerOptions{
			Server:       url,
			ExecProgress: session.ExecCell,
			Classify:     harness.Transient,
			PollWait:     100 * time.Millisecond,
		})
		slots.Add(1)
		go func() {
			defer slots.Done()
			w.Run(slotCtx)
		}()
	}

	client := service.NewClient(service.ClientOptions{Server: url})
	for _, bench := range []string{"gzip", "art", "treeadd"} {
		rec, err := client.Exec(campaign.Cell{
			Config:    core.DefaultConfig(),
			Bench:     bench,
			Scale:     workload.ScaleTest,
			MaxInstr:  5000,
			MaxCycles: 1 << 20,
		})
		if err != nil || rec.Bench != bench || rec.Stats.Committed == 0 {
			t.Fatalf("Exec(%s) = %+v, %v", bench, rec, err)
		}
	}

	// Workers first, as an operator would: a slot that is still waiting on
	// the request that delivered its last outcome delivers it again on the
	// way out, and wants a coordinator there to refuse it.
	stopSlots()
	slots.Wait()
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d, stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after its context was cancelled; stderr:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last,
		"wibserve: done — 3 submitted, 3 completed, 0 failed, 0 cache hits, 0 retries, 0 requeues, 0 lease expiries") {
		t.Errorf("final line %q", last)
	}
	store, err := campaign.NewStore(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := store.IDs(); err != nil || len(ids) != 3 {
		t.Errorf("store holds %d records (%v), want 3", len(ids), err)
	}
}
