package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
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
		{nil, "-server is required"},
		{[]string{"-server", "http://127.0.0.1:1", "-log-format", "yaml"}, `unknown log format "yaml"`},
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

// TestWorkerSmoke drives the whole command in-process against a
// coordinator (what wibserve mounts): `-parallel 2` leases and simulates
// three test-scale cells a client submits, and cancelling the context —
// what SIGTERM does in main — makes both slots finish and the command
// exit 0 with its completion count.
func TestWorkerSmoke(t *testing.T) {
	store, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := service.NewCoordinator(service.CoordinatorOptions{Store: store})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer // only run writes it, and only before exit is sent
	var stderr lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-server", srv.URL, "-parallel", "2", "-id", "smoke", "-poll", "100ms"}, &stdout, &stderr)
	}()

	client := service.NewClient(service.ClientOptions{Server: srv.URL})
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

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d, stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after its context was cancelled; stderr:\n%s", stderr.String())
	}
	// The worker counts acknowledged completions, each slot's last one
	// included: the lease request carrying it is not cancelled.
	if !regexp.MustCompile(`wibworker: exiting after 3 completions\n$`).MatchString(stderr.String()) || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr:\n%s", stdout.String(), stderr.String())
	}
	if st := coord.Stats(); st.Submitted != 3 || st.Completed != 3 || st.Failed != 0 {
		t.Errorf("coordinator saw %d submitted, %s", st.Submitted, st.Summary())
	}
	if ids, err := store.IDs(); err != nil || len(ids) != 3 {
		t.Errorf("store holds %d records (%v), want 3", len(ids), err)
	}
}
