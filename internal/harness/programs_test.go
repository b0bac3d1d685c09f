package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"largewindow/internal/core"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// countingSource is any workload behind the "counting:" ref scheme
// ("counting:gzip", "counting:synth:mlp=4,..."): the same program, under
// its own identity, with every build counted. "counting:panic" panics on
// every build.
type countingSource struct{ inner workload.Source }

var builds struct {
	mu      sync.Mutex
	n       map[string]int // by inner ref
	onBuild func()         // called at the start of every build, if set
}

func init() {
	workload.RegisterScheme("counting", func(ref string) (workload.Source, error) {
		if ref == "panic" {
			return countingSource{}, nil
		}
		src, err := workload.ParseRef(ref)
		if err != nil {
			return nil, err
		}
		return countingSource{inner: src}, nil
	})
}

func (c countingSource) Name() string {
	if c.inner == nil {
		return "panic"
	}
	return c.inner.Name()
}

func (c countingSource) Suite() workload.Suite { return workload.SuiteExternal }
func (c countingSource) Ref() string           { return "counting:" + c.innerRef() }
func (c countingSource) Identity() string      { return "counting:" + c.innerRef() }

func (c countingSource) innerRef() string {
	if c.inner == nil {
		return "panic"
	}
	return c.inner.Ref()
}

func (c countingSource) Build(sc workload.Scale) (*isa.Program, error) {
	builds.mu.Lock()
	builds.n[c.innerRef()]++
	onBuild := builds.onBuild
	builds.mu.Unlock()
	if onBuild != nil {
		onBuild()
	}
	if c.inner == nil {
		panic("sabotaged build")
	}
	return c.inner.Build(sc)
}

// countBuilds resets the build counters and returns a reader of their
// total.
func countBuilds() func() int {
	builds.mu.Lock()
	builds.n = map[string]int{}
	builds.mu.Unlock()
	return func() int {
		builds.mu.Lock()
		defer builds.mu.Unlock()
		total := 0
		for _, n := range builds.n {
			total += n
		}
		return total
	}
}

// TestCellsInFlightShareOneBuild: cells of one workload that run at the
// same time build its program once; once they have finished the session
// keeps nothing, and the next cell builds it again.
func TestCellsInFlightShareOneBuild(t *testing.T) {
	total := countBuilds()
	const cells = 4
	var mu sync.Mutex
	arrived, all := 0, make(chan struct{})
	// Every cell waits in PreRun, after it took its program, until all of
	// them have: they hold the program at the same time.
	s := NewSession(Options{
		Scale: workload.ScaleTest, MaxInstr: 5_000, Parallel: cells,
		PreRun: func(*core.Processor, core.Config, workload.Source) {
			mu.Lock()
			if arrived++; arrived == cells {
				close(all)
			}
			mu.Unlock()
			<-all
		},
	})
	src, err := s.resolveRef("counting:gzip")
	if err != nil {
		t.Fatal(err)
	}
	grid := ExploreGrid()
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.ExecCell(s.cell(grid[i], src), nil); err != nil {
				t.Errorf("cell %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if n := total(); n != 1 {
		t.Fatalf("%d cells in flight built their program %d times, want 1", cells, n)
	}
	if _, err := s.ExecCell(s.cell(grid[cells], src), nil); err != nil {
		t.Fatal(err)
	}
	if n := total(); n != 2 {
		t.Errorf("a cell after the others finished: %d builds in all, want 2 (the session kept the program)", n)
	}
}

// TestBuildPanicReachesEveryCell: a program build that panics fails every
// cell waiting on it with an error carrying the panic's stack, and blocks
// none of them.
func TestBuildPanicReachesEveryCell(t *testing.T) {
	countBuilds()
	const cells = 4
	s := NewSession(Options{Scale: workload.ScaleTest, MaxInstr: 5_000, Parallel: cells})
	src, err := s.resolveRef("counting:panic")
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.ExecCell(s.cell(ExploreGrid()[i], src), nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic: sabotaged build") ||
			!strings.Contains(err.Error(), "countingSource.Build") {
			t.Errorf("cell %d: error %v, want the build's panic with its stack", i, err)
		}
	}
}

// programsBuilt counts the programs in the session's table that are built
// or being built, under the table's own lock. flight.Shared exports no
// count, so the test reads its fields by reflection.
func programsBuilt(s *Session) int {
	table := reflect.ValueOf(&s.programs).Elem()
	mu := (*sync.Mutex)(unsafe.Pointer(table.FieldByName("mu").UnsafeAddr()))
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for it := table.FieldByName("entries").MapRange(); it.Next(); {
		if !it.Value().Elem().FieldByName("slot").IsNil() {
			n++
		}
	}
	return n
}

// TestExploreBuildsPerPass: one explore pass builds each program once to
// profile it and at most once per batch, because a batch holds a
// program across its cells: 24 builds for this pass. Before the session
// shared programs, every simulated cell built its own: 60 builds (8
// profiles + 52 cells). A refactor that brings per-cell builds back fails
// here. And each cell's hold ends when the cell does, so at most
// Parallel + 1 programs are built and alive at once: when a hold lasted
// until the cell was collected in batch order, a slow cell at the head
// of a batch kept every program built since alive (3-5 at Parallel 2,
// 7-8 at Parallel 4). The peak is read at every build, the only moment
// it can rise.
func TestExploreBuildsPerPass(t *testing.T) {
	refs := []string{"mst", "em3d", "art", "gzip", "swim", "perimeter",
		"synth:mlp=4,miss=0.1,ws=4m,n=10000", "synth:mlp=1,miss=0.3,ws=1m,n=10000,seed=3"}
	for i, ref := range refs {
		refs[i] = "counting:" + ref
	}
	for _, par := range []int{2, 4} {
		total := countBuilds()
		s := NewSession(Options{Scale: workload.ScaleTest, MaxInstr: 10_000, Parallel: par, Benchmarks: refs})
		var peak atomic.Int32
		builds.mu.Lock()
		builds.onBuild = func() {
			for n, p := int32(programsBuilt(s)), peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
		}
		builds.mu.Unlock()
		rep, err := s.Explore(ExploreGrid(), ExploreOptions{TopK: 2, AuditFrac: 0.1, Seed: 1})
		builds.mu.Lock()
		builds.onBuild = nil
		builds.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		const batches = 2
		n := total()
		t.Logf("Parallel %d: %d builds for %d programs, %d simulated cells, at most %d programs built at once",
			par, n, len(refs), rep.Simulated, peak.Load())
		if limit := len(refs) * (batches + 1); n > limit {
			t.Errorf("Parallel %d: %d builds in one pass over %d programs, want at most %d (one profile, one per batch)", par, n, len(refs), limit)
		}
		if got := int(peak.Load()); got > par+1 {
			t.Errorf("Parallel %d: %d programs built and alive at once, want at most %d", par, got, par+1)
		}
	}
}

// TestCancelledSessionCellBuildsNothing: a cell that starts after the
// session's context is done fails with the context's error before it
// builds its program, so the cells queued behind a cancel cost nothing.
func TestCancelledSessionCellBuildsNothing(t *testing.T) {
	total := countBuilds()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(Options{Scale: workload.ScaleTest, MaxInstr: 5_000, Context: ctx})
	src, err := s.resolveRef("counting:gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecCell(s.cell(core.DefaultConfig(), src), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cell on a cancelled session: err = %v, want context.Canceled", err)
	}
	if n := total(); n != 0 {
		t.Errorf("cell on a cancelled session built its program %d times, want 0", n)
	}
}
