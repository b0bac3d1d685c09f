package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"largewindow"
	"largewindow/internal/campaign"
	"largewindow/internal/harness"
	"largewindow/internal/model"
	"largewindow/internal/obs"
	"largewindow/internal/service"
)

// exploreParallel pins explore-grid's host parallelism.
func exploreParallel() int { return min(2, runtime.NumCPU()) }

// exploreRefs is explore-grid's workload set: the six kernels the model
// was tuned on plus two of the seed's held-out synth programs.
func exploreRefs(e *env) []string {
	synth := synthRefs(e.seed, e.sz.synthN)
	return append(append([]string(nil), exploreKernels...), synth[0], synth[2])
}

// exploreAuditSeed pins which pruned cells the exploration simulates to
// audit the model. The slice is 4 cells of 36 whose costs differ thirtyfold,
// so letting the benchmark seed pick it moved a pass by 11% between seeds,
// as much as everything else together; the seed picks the synth programs.
const exploreAuditSeed = 1

// exploreOnce is what `experiments -explore -cache` runs: a model-pruned
// sweep of the default grid through a session persisting to dir.
func exploreOnce(e *env, dir string, resume bool) (*model.Report, error) {
	s := harness.NewSession(harness.Options{
		CacheDir:   dir,
		Resume:     resume,
		Parallel:   exploreParallel(),
		Scale:      e.sz.scale,
		MaxInstr:   e.sz.exploreInstr,
		Benchmarks: exploreRefs(e),
	})
	if err := s.StoreErr(); err != nil {
		return nil, err
	}
	return s.Explore(harness.ExploreGrid(), harness.ExploreOptions{TopK: 2, AuditFrac: 0.1, Seed: exploreAuditSeed})
}

// reportCells flattens an exploration report into one simulated outcome
// per grid cell: measured cycles where simulated, and the calibrated
// prediction's bits for every cell.
func reportCells(rep *model.Report) []cellResult {
	cells := make([]cellResult, len(rep.Points))
	for i, p := range rep.Points {
		cells[i] = cellResult{
			Cell:   p.Bench + "/" + p.Config,
			Cycles: int64(p.SimCycles),
			Hash:   math.Float64bits(p.Pred.Cycles),
		}
	}
	return cells
}

// setupExplore makes one step of the whole exploration, each pass into a
// fresh cache directory so no pass is served from the one before.
func setupExplore(e *env) (*instance, error) {
	if _, err := parseRefs(exploreRefs(e), e.sz.scale); err != nil {
		return nil, err
	}
	var dirs []string
	inst := &instance{close: func() {}}
	inst.steps = []step{{name: "explore", run: func() (stepOut, error) {
		dir, err := e.tempDir()
		if err != nil {
			return stepOut{}, err
		}
		dirs = append(dirs, dir)
		rep, err := exploreOnce(e, dir, false)
		if err != nil {
			return stepOut{}, err
		}
		return stepOut{ops: uint64(rep.TotalCells), cells: reportCells(rep)}, nil
	}}}
	// Every simulated cell of the first pass must be in its store, decodable.
	inst.verify = func(first []stepOut) (int, []string) {
		if len(dirs) == 0 || len(first) == 0 {
			return 0, nil
		}
		simulated := 0
		for _, c := range first[0].cells {
			if c.Cycles > 0 {
				simulated++
			}
		}
		return 1, checkStore(dirs[0], simulated, nil)
	}
	return inst, nil
}

// checkStore verifies a campaign store holds exactly want decodable
// records; with ids given, exactly those IDs.
func checkStore(dir string, want int, ids map[string]bool) []string {
	store, err := campaign.NewStore(dir)
	if err != nil {
		return []string{err.Error()}
	}
	have, err := store.IDs()
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	if len(have) != want {
		bad = append(bad, fmt.Sprintf("store holds %d records, want %d", len(have), want))
	}
	for _, id := range have {
		if ids != nil && !ids[id] {
			bad = append(bad, fmt.Sprintf("store holds record %s that was never submitted", id))
		}
		if rec, err := store.Get(id); err != nil || rec == nil || rec.CellID != id {
			bad = append(bad, fmt.Sprintf("record %s does not decode: %v", id, err))
		}
	}
	return bad
}

// fleet is an in-process coordinator behind an HTTP server with two
// workers running a no-op executor and two closed-loop clients.
type fleet struct {
	coord   *service.Coordinator
	srv     *httptest.Server
	bus     *obs.Bus
	dir     string
	clients []*service.Client
	stop    func()
	order   rng
	next    int   // next unused cell index
	sent    []int // every cell index submitted so far
}

const (
	fleetWorkers = 2
	fleetClients = 2
)

var fleetKernels = largewindow.BenchmarkNames()

// fleetCell is the i-th distinct cell: the budget makes the identity
// unique, the kernel name only varies the record.
func fleetCell(i int) campaign.Cell {
	return campaign.Cell{
		Config:    largewindow.BaseConfig(),
		Bench:     fleetKernels[i%len(fleetKernels)],
		Scale:     largewindow.ScaleTest,
		MaxInstr:  uint64(1000 + i),
		MaxCycles: 1 << 20,
	}
}

// noopExec answers a cell with a canned record: the fleet tier runs, the
// simulator does not.
func noopExec(c campaign.Cell) (*campaign.Record, error) {
	rec := &campaign.Record{
		Config:    c.Config.Name,
		Bench:     c.Bench,
		Suite:     "SPEC-INT",
		Scale:     c.Scale.String(),
		MaxInstr:  c.MaxInstr,
		MaxCycles: c.MaxCycles,
		IPC:       1.5,
	}
	rec.Stats.Committed = c.MaxInstr
	rec.Stats.Cycles = int64(c.MaxInstr) * 2
	return rec, nil
}

// startFleet brings the fleet up over a store in dir with the given
// number of workers (none for probes that only queue).
func startFleet(e *env, dir string, workers int) (*fleet, error) {
	store, err := campaign.NewStore(dir)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, bus: obs.NewBus(), order: rng{x: e.seed}}
	f.coord = service.NewCoordinator(service.CoordinatorOptions{Store: store, Events: f.bus, QueueCap: 1 << 16})
	f.srv = httptest.NewServer(f.coord.Handler())

	// One subscriber that drains, so event fan-out delivers.
	sub := f.bus.Subscribe(0)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := service.NewWorker(service.WorkerOptions{
			Server:   f.srv.URL,
			ID:       fmt.Sprintf("bench-w%d", i),
			Exec:     noopExec,
			PollWait: 50 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // returns ctx's error on shutdown, by design
		}()
	}
	for i := 0; i < fleetClients; i++ {
		f.clients = append(f.clients, service.NewClient(service.ClientOptions{Server: f.srv.URL}))
	}
	f.stop = func() {
		cancel()
		wg.Wait()
		f.bus.Unsubscribe(sub)
		<-drained
		f.srv.Close()
		f.coord.Close()
	}
	return f, nil
}

// batch draws the next n distinct cells in seeded order and runs them
// closed loop: each client sends its next cell only after the previous
// one completed. onExec, when set, brackets every Client.Exec.
func (f *fleet) batch(n int, onExec func(client int, cell campaign.Cell, exec func() error) error) (stepOut, error) {
	idx := f.order.perm(n)
	order := cellResult{Cell: fmt.Sprintf("batch@%d", f.next), Committed: uint64(n)}
	for i := range idx {
		idx[i] += f.next
		order.Hash = order.Hash*1099511628211 ^ uint64(idx[i])
	}
	f.next += n
	f.sent = append(f.sent, idx...)

	lat := make([]float64, n)
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for c, client := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += len(f.clients) {
				cell := fleetCell(idx[i])
				exec := func() error {
					t0 := time.Now()
					_, err := client.Exec(cell)
					lat[i] = time.Since(t0).Seconds() * 1e3
					return err
				}
				var err error
				if onExec != nil {
					err = onExec(c, cell, exec)
				} else {
					err = exec()
				}
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("cell %d: %w", idx[i], err)
				}
			}
		}()
	}
	wg.Wait()
	// The seeded order stands in for a simulated outcome: it is what the
	// seed decides here, and what the layered run must reproduce.
	out := stepOut{ops: uint64(n), calls: n, lat: lat, cells: []cellResult{order}}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// verifyStore checks the store holds exactly one decodable record per
// submitted cell.
func (f *fleet) verifyStore() []string {
	ids := make(map[string]bool, len(f.sent))
	for _, i := range f.sent {
		ids[fleetCell(i).ID()] = true
	}
	return checkStore(f.dir, len(ids), ids)
}

// startWarmFleet starts the fleet and has every client ask the
// coordinator for its statistics a few hundred times: that opens the
// connections and checks the fleet answers without touching the store.
// Warming with cells instead made setup_s bimodal: whole runs set up at
// half speed, by the filesystem's state when they started. The untimed
// warm-up pass pays for the store's first writes.
func startWarmFleet(e *env, dir string) (*fleet, error) {
	f, err := startFleet(e, dir, fleetWorkers)
	if err != nil {
		return nil, err
	}
	for _, c := range f.clients {
		for i := 0; i < e.sz.fleetBatch/8; i++ {
			if _, err := c.Stats(); err != nil {
				f.stop()
				return nil, err
			}
		}
	}
	return f, nil
}

// setupFleet makes one step of one batch of distinct cells.
func setupFleet(e *env) (*instance, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	f, err := startWarmFleet(e, dir)
	if err != nil {
		return nil, err
	}
	return &instance{
		steps: []step{{name: "batch", run: func() (stepOut, error) { return f.batch(e.sz.fleetBatch, nil) }}},
		verify: func([]stepOut) (int, []string) {
			return len(f.sent), f.verifyStore()
		},
		close: f.stop,
	}, nil
}
