package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
)

// ClientOptions configures a coordinator client.
type ClientOptions struct {
	// Server is the coordinator base URL.
	Server string
	// Retry bounds transport-level retries (connection failures, 5xx,
	// and 429 backpressure waits). The zero value means 8 attempts,
	// 100ms base delay doubling to a 5s cap, ±20% jitter.
	Retry campaign.RetryPolicy
	// PollWait is the long-poll budget per result request (<= 0: 5s).
	PollWait time.Duration
	// Log receives backpressure and retry lines (nil = quiet).
	Log io.Writer
}

// Client submits cells to a coordinator and awaits their records. Its
// Exec method satisfies campaign.ExecFunc, so a harness session pointed
// at a coordinator runs an unchanged campaign — same engine, same
// progress line, same store semantics — with the simulation happening
// fleet-side.
type Client struct {
	opt ClientOptions
	hc  *http.Client
}

// NewClient builds a client for a coordinator base URL.
func NewClient(opt ClientOptions) *Client {
	if opt.Retry.MaxAttempts <= 0 {
		opt.Retry.MaxAttempts = 8
	}
	if opt.Retry.BaseDelay <= 0 {
		opt.Retry.BaseDelay = 100 * time.Millisecond
	}
	if opt.Retry.MaxDelay <= 0 {
		opt.Retry.MaxDelay = 5 * time.Second
	}
	if opt.Retry.Jitter == 0 {
		opt.Retry.Jitter = 0.2
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 5 * time.Second
	}
	return &Client{opt: opt, hc: &http.Client{Timeout: 2 * time.Minute}}
}

// Exec runs one cell remotely in one round trip: a submission
// (idempotent — the coordinator dedups by content ID) that waits up to
// PollWait for the outcome. Only a cell slower than that is then awaited
// through Result. It is mounted as the harness engine's ExecFunc in
// server mode. Transport faults and backpressure surface as transient
// RemoteErrors (the engine's retry policy re-dispatches); a failure the
// coordinator declared permanent surfaces as a permanent one.
func (c *Client) Exec(cell campaign.Cell) (*campaign.Record, error) {
	resp, err := c.submit([]campaign.Cell{cell}, 0, 0, c.opt.PollWait)
	if err != nil {
		return nil, err
	}
	res := &ResultResponse{Status: StatusPending}
	if len(resp.Results) == 1 {
		res = &resp.Results[0]
	}
	for {
		switch res.Status {
		case StatusDone:
			return res.Record, nil
		case StatusFailed:
			return nil, &RemoteError{
				Op:  "cell " + cell.String(),
				Err: fmt.Errorf("%s (after %d attempts)", res.Error, res.Attempts),
			}
		}
		// Pending or running: the fleet is on it (or will be); keep
		// waiting. Progress is the coordinator's job to guarantee — lost
		// workers expire their leases, poison cells exhaust MaxRequeues
		// and fail, so this loop cannot spin forever on a dispatched cell.
		if res, err = c.Result(resp.IDs[0], c.opt.PollWait); err != nil {
			return nil, err
		}
	}
}

// Submit registers cells, honoring backpressure: a 429 waits out the
// coordinator's Retry-After and tries again under the transport budget.
// Each submission mints a correlation ID (body + obs.CorrHeader) so the
// coordinator can stitch this batch's lifecycle across the fleet; the
// ID is ignored at zero cost when fleet tracing is disabled.
func (c *Client) Submit(cells []campaign.Cell) (*SubmitResponse, error) {
	return c.submit(cells, 0, 0, 0)
}

// SubmitPruned is Submit for model-pruned sweeps: pruned/audited report
// how many grid cells the interval model answered without simulation
// (and how many of this batch are the audit slice), so the coordinator's
// progress snapshots and event stream account for the whole grid, not
// just the surviving cells.
func (c *Client) SubmitPruned(cells []campaign.Cell, pruned, audited uint64) (*SubmitResponse, error) {
	return c.submit(cells, pruned, audited, 0)
}

// submit sends one submission; wait > 0 asks the coordinator to hold the
// answer until the cells have finished and to report them in it.
func (c *Client) submit(cells []campaign.Cell, pruned, audited uint64, wait time.Duration) (*SubmitResponse, error) {
	req := SubmitRequest{
		Cells: cells, CorrID: obs.NewCorrID(),
		ModelPruned: pruned, ModelAudited: audited,
		WaitMS: wait.Milliseconds(),
	}
	stamp(&req.SchemaVersion)
	var resp SubmitResponse
	if err := c.callCorr(http.MethodPost, PathSubmit, req.CorrID, &req, &resp); err != nil {
		return nil, err
	}
	if len(resp.IDs) != len(cells) {
		return nil, &RemoteError{Op: "submit", Err: fmt.Errorf("%d cells acknowledged, sent %d", len(resp.IDs), len(cells))}
	}
	return &resp, nil
}

// Result fetches one cell's outcome, long-polling up to wait.
func (c *Client) Result(id string, wait time.Duration) (*ResultResponse, error) {
	path := fmt.Sprintf("%s?id=%s&wait_ms=%d", PathResult, id, wait.Milliseconds())
	var resp ResultResponse
	if err := c.call(http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the coordinator's counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.call(http.MethodGet, PathStats, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthy probes the coordinator's liveness endpoint once (no retries).
func (c *Client) Healthy() error {
	resp, err := c.hc.Get(c.opt.Server + PathHealth)
	if err != nil {
		return &RemoteError{Op: "health", Err: err, Transient: true}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	if resp.StatusCode != http.StatusOK {
		return &RemoteError{Op: "health", Err: fmt.Errorf("HTTP %d", resp.StatusCode), Transient: true}
	}
	return nil
}

// retryableStatus reports codes worth another attempt: backpressure,
// drain, and server-side blips. 4xx request errors are not — repeating a
// malformed request cannot fix it.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code >= 500
}

// call performs one API request under the transport retry budget,
// honoring Retry-After on backpressure responses.
func (c *Client) call(method, path string, body, out any) error {
	return c.callCorr(method, path, "", body, out)
}

// callCorr is call with a correlation ID riding the obs.CorrHeader.
func (c *Client) callCorr(method, path, corr string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for failures := 0; failures < c.opt.Retry.Attempts(); failures++ {
		if failures > 0 {
			time.Sleep(c.opt.Retry.Backoff(failures))
		}
		req, err := http.NewRequest(method, c.opt.Server+path, bytes.NewReader(payload))
		if err != nil {
			return &RemoteError{Op: path, Err: err}
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if corr != "" {
			req.Header.Set(obs.CorrHeader, corr)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			if c.opt.Log != nil {
				fmt.Fprintf(c.opt.Log, "  service %s: %v (attempt %d)\n", path, err, failures+1)
			}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close()
			if err != nil {
				return &RemoteError{Op: path, Err: fmt.Errorf("decoding response: %w", err), Transient: true}
			}
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		lastErr = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		if !retryableStatus(resp.StatusCode) {
			return &RemoteError{Op: path, Err: lastErr}
		}
		// Backpressure: the coordinator told us when to come back.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				if c.opt.Log != nil {
					fmt.Fprintf(c.opt.Log, "  service %s: backpressure, waiting %ds\n", path, secs)
				}
				time.Sleep(time.Duration(secs) * time.Second)
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("retry budget exhausted")
	}
	return &RemoteError{Op: path, Err: lastErr, Transient: true}
}
