package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"largewindow/internal/harness"
	"largewindow/internal/obs"
	"largewindow/internal/service"
)

// fleetWatch renders the coordinator's live event stream (DESIGN.md §11)
// as a terminal dashboard: lifecycle lines scroll, the latest fleet
// progress snapshot repaints in place beneath them. On a non-terminal
// stderr it degrades to plain scrolling lines so logs stay readable.
type fleetWatch struct {
	cancel context.CancelFunc
	done   chan struct{}
	stderr io.Writer
}

// watchFleet subscribes to server's SSE stream in the background.
// Call stop when the campaign finishes.
func watchFleet(server string, stderr io.Writer) *fleetWatch {
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleetWatch{cancel: cancel, done: make(chan struct{}), stderr: stderr}
	term := isTerminal(stderr)
	go func() {
		defer close(w.done)
		painted := false
		clear := func() {
			if painted {
				obs.Repaint(stderr, "")
				painted = false
			}
		}
		err := obs.StreamEvents(ctx, nil, server+service.PathEvents, func(ev obs.Event) error {
			switch ev.Type {
			case obs.EventProgress:
				if ev.Progress == nil {
					return nil
				}
				if term {
					obs.Repaint(stderr, ev.Progress.Line())
					painted = true
				} else {
					fmt.Fprintln(stderr, ev.Progress.Line())
				}
			case obs.EventHeartbeat, obs.EventSubmit:
				// Routine chatter: heartbeats tick constantly and submits
				// arrive in bursts the progress line already counts.
			case obs.EventGap:
				clear()
				fmt.Fprintf(stderr, "fleet: event stream dropped %d events (slow consumer)\n", ev.Dropped)
			default:
				clear()
				fmt.Fprintln(stderr, renderFleetEvent(ev))
			}
			return nil
		})
		clear()
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "fleet: watch ended: %v\n", err)
		}
	}()
	return w
}

// stop tears down the subscription and clears the dashboard line.
func (w *fleetWatch) stop() {
	w.cancel()
	select {
	case <-w.done:
	case <-time.After(2 * time.Second):
	}
	fmt.Fprintln(w.stderr)
}

// watchLocal repaints the local session's status line in place every
// half second; expected is the manifest size when known ahead of
// submission. The returned stop halts it and erases the line.
func watchLocal(s *harness.Session, expected uint64, stderr io.Writer) (stop func()) {
	tick, quit, done := time.NewTicker(500*time.Millisecond), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				obs.Repaint(stderr, s.Snapshot().Progress(expected).Line())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		tick.Stop()
		obs.Repaint(stderr, "")
	}
}

// renderFleetEvent formats one scrolling lifecycle line.
func renderFleetEvent(ev obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %-8s", ev.Type)
	if ev.Cell != "" {
		fmt.Fprintf(&b, " %s", ev.Cell)
	} else if ev.CellID != "" {
		fmt.Fprintf(&b, " %s", ev.CellID)
	}
	if ev.Worker != "" {
		fmt.Fprintf(&b, " on %s", ev.Worker)
	}
	if ev.Attempt > 1 {
		fmt.Fprintf(&b, " (attempt %d)", ev.Attempt)
	}
	if ev.Error != "" {
		fmt.Fprintf(&b, ": %s", ev.Error)
	}
	if ev.Note != "" {
		fmt.Fprintf(&b, " [%s]", ev.Note)
	}
	return b.String()
}
