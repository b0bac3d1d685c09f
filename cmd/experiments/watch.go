package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"largewindow/internal/campaign"
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
		lastLen := 0
		clear := func() {
			if term && lastLen > 0 {
				fmt.Fprintf(stderr, "\r%s\r", strings.Repeat(" ", lastLen))
				lastLen = 0
			}
		}
		err := obs.StreamEvents(ctx, nil, server+service.PathEvents, func(ev obs.Event) error {
			switch ev.Type {
			case obs.EventProgress:
				if ev.Progress == nil {
					return nil
				}
				line := renderFleetLine(ev.Progress)
				if term {
					pad := ""
					if n := lastLen - len(line); n > 0 {
						pad = strings.Repeat(" ", n)
					}
					fmt.Fprintf(stderr, "\r%s%s", line, pad)
					lastLen = len(line)
				} else {
					fmt.Fprintln(stderr, line)
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

// renderFleetLine formats one progress snapshot. Rates and ETAs arrive
// pre-sanitized (obs.SaneRate/SaneETAFrac): never NaN, Inf, or negative —
// unknown ETA is negative by contract and rendered as "--".
func renderFleetLine(p *obs.Progress) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d/%d done", p.Done, p.Submitted)
	if p.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", p.Failed)
	}
	fmt.Fprintf(&b, ", %d running, queue %d", p.Running, p.QueueDepth)
	if p.InstrsPerSec > 0 {
		fmt.Fprintf(&b, ", %s instrs/s", campaign.SIFormat(p.InstrsPerSec))
	}
	if p.ETASec >= 0 {
		fmt.Fprintf(&b, ", ETA %s", (time.Duration(p.ETASec * float64(time.Second))).Round(time.Second))
	} else if p.Done < p.Submitted {
		b.WriteString(", ETA --")
	}
	return b.String()
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
