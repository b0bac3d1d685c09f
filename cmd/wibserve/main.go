// Command wibserve runs the campaign coordinator: an HTTP service that
// accepts campaign cells, leases them to wibworker processes, and owns
// retries, lease-expiry recovery, backpressure, and result persistence
// (DESIGN.md §10), with live fleet observability — Prometheus metrics at
// /metrics, an SSE lifecycle-event stream at /api/v1/events, and
// distributed span logging for `wibtrace -fleet` (DESIGN.md §11).
//
// Usage:
//
//	wibserve [-addr :8420] [-cache-dir dir] [-resume]
//	         [-queue-cap N] [-lease-ttl 30s] [-max-requeues N]
//	         [-retry-max N] [-retry-base 0s] [-drain-timeout 30s]
//	         [-events] [-span-log file] [-progress-interval 1s]
//	         [-log-format text|json] [-pprof-addr addr] [-v]
//
// The coordinator is stateless beyond its in-memory queue: every finished
// record persists atomically into the content-addressed store under
// -cache-dir, so killing and restarting wibserve loses only bookkeeping
// that resubmission rebuilds — never results: a client whose result poll
// meets the restarted coordinator submits its cell again, a store hit
// under -resume. SIGTERM/SIGINT triggers a
// graceful drain: new submissions are refused (503), workers are told to
// exit as they next ask for work, and in-flight leases get -drain-timeout
// to deliver before the process exits.
//
// Observability defaults: the event stream is on (-events=false turns it
// off along with the periodic progress broadcast); span logging is off
// until -span-log names a file. /metrics is always served — scraping is
// pull-based and costs nothing between scrapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
	"largewindow/internal/service"
)

func main() {
	// The stop function is dropped: the process exits when run returns.
	ctx, _ := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, serves until ctx is
// cancelled (main cancels it on SIGINT/SIGTERM), drains, and returns the
// exit status (0 ok, 1 a failed start or serve, 2 bad usage). The bound
// address goes to stdout, everything else to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wibserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8420", "listen address (use :0 for an ephemeral port)")
		cacheDir  = fs.String("cache-dir", "", "content-addressed record store directory (required)")
		resume    = fs.Bool("resume", false, "serve submitted cells already present in -cache-dir from disk")
		queueCap  = fs.Int("queue-cap", 0, "pending-queue bound; overflowing submissions get 429 (0 = 4096)")
		leaseTTL  = fs.Duration("lease-ttl", 0, "heartbeat deadline before a leased cell is requeued (0 = 30s)")
		requeues  = fs.Int("max-requeues", 0, "lease expiries before a cell fails permanently (0 = 5)")
		retryMax  = fs.Int("retry-max", 0, "attempts per cell across transient worker failures (0 = 2)")
		retryBP   = fs.Duration("retry-base", 0, "base re-dispatch backoff, doubling per failure (0 = immediate)")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight leases on shutdown")
		events    = fs.Bool("events", true, "serve the SSE lifecycle-event stream at /api/v1/events")
		spanLog   = fs.String("span-log", "", "record fleet lifecycle spans to this JSONL file (for wibtrace -fleet)")
		progEvery = fs.Duration("progress-interval", 0, "pace of progress events on the stream (0 = 1s)")
		logFormat = fs.String("log-format", "text", "structured log encoding: text or json")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
		verbose   = fs.Bool("v", false, "log dispatch, expiry, and rejection events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "wibserve: "+format+"\n", a...)
		return code
	}

	logger, err := obs.NewLogger(stderr, *logFormat, *verbose)
	if err != nil {
		return fail(2, "%v", err)
	}
	if *cacheDir == "" {
		return fail(2, "-cache-dir is required (completed records must persist somewhere)")
	}
	store, err := campaign.NewStore(*cacheDir)
	if err != nil {
		return fail(1, "%v", err)
	}
	opt := service.CoordinatorOptions{
		Store:       store,
		Resume:      *resume,
		QueueCap:    *queueCap,
		LeaseTTL:    *leaseTTL,
		MaxRequeues: *requeues,
		Retry: campaign.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBP,
			Jitter:      0.2,
		},
		Log:              logger,
		ProgressInterval: *progEvery,
	}
	if *events {
		opt.Events = obs.NewBus()
	}
	var spanFile *os.File
	if *spanLog != "" {
		spanFile, err = os.Create(*spanLog)
		if err != nil {
			return fail(1, "span log: %v", err)
		}
		opt.Spans = obs.NewSpanLog(spanFile)
	}
	coord := service.NewCoordinator(opt)
	defer coord.Close()

	if *pprofAddr != "" {
		// pprof registers on DefaultServeMux at import; the API mux is
		// custom, so profiling stays off the public port.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof server exited", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(1, "%v", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	// Stays on stdout, and stays first: recipes and the check harness
	// scrape this line for the bound address.
	fmt.Fprintf(stdout, "wibserve listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Info("shutdown requested, draining")
	case err := <-serveErr:
		return fail(1, "%v", err)
	}

	// The grace period starts now: ctx is already cancelled.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := coord.Drain(dctx); err != nil {
		logger.Warn("drain incomplete", "error", err)
	}
	srv.Shutdown(dctx)
	if spanFile != nil {
		// Drain already flushed the span log's buffer; close the file so
		// the last spans are durable before the exit status prints.
		if err := spanFile.Close(); err != nil {
			logger.Warn("closing span log", "error", err)
		}
	}
	st := coord.Stats()
	fmt.Fprintf(stderr, "wibserve: done — %d submitted, %s\n", st.Submitted, st.Summary())
	return 0
}
