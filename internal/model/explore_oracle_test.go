package model

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// oracleLPTOrder is the order a batch's cells were first handed out in:
// longest predicted time first, ties to the lower cell index.
func oracleLPTOrder(points []Point, cells []int) []int {
	order := slices.Clone(cells)
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(points[b].Pred.Cycles, points[a].Pred.Cycles); c != 0 {
			return c
		}
		return a - b
	})
	return order
}

// oracleCollectProfiles is the profiling phase as a serial loop: bench by
// bench, one Collect per distinct (memory, predictor) family.
func (s *Space) oracleCollectProfiles() ([]*Profile, error) {
	family := make([]string, len(s.Configs))
	for ci, cfg := range s.Configs {
		family[ci] = fmt.Sprintf("%s\x00%v", MemKey(cfg.Mem), cfg.Bpred)
	}
	nb := len(s.Benches)
	profiles := make([]*Profile, len(s.Configs)*nb)
	for bi, bench := range s.Benches {
		src, err := workload.ParseRef(bench)
		if err != nil {
			return nil, err
		}
		prog, err := src.Build(s.Scale)
		if err != nil {
			return nil, err
		}
		byFamily := map[string]*Profile{}
		for ci, cfg := range s.Configs {
			p := byFamily[family[ci]]
			if p == nil {
				p, err = Collect(prog, s.Scale.String(), CollectOptions{
					MaxInstr: s.ProfileInstr,
					Mem:      cfg.Mem,
					Bpred:    cfg.Bpred,
				})
				if err != nil {
					return nil, err
				}
				byFamily[family[ci]] = p
			}
			profiles[ci*nb+bi] = p
		}
	}
	return profiles, nil
}

// cellExec simulates one (config, bench) cell: the unit the pooled batch
// runner below calls.
type cellExec = func(cfg core.Config, bench string) (cycles uint64, ipc float64, err error)

// oracleSimulate is the batch runner the explorer had before its batches
// went to Exec whole: the cells in programMajor order on width goroutines
// of its own, each running exec on one cell at a time and writing only
// that cell's measurement. A failure skips the batch's cells above its
// index but not those below, so the error returned is the lowest-index
// failing cell's whatever the completion order.
func oracleSimulate(s *Space, exec cellExec, width int) func(points []Point, cells []int, rep *Report) error {
	return func(points []Point, cells []int, rep *Report) error {
		cells = s.programMajor(points, cells)
		nb := len(s.Benches)
		errs := make([]error, len(points))
		var next, lowest atomic.Int64
		lowest.Store(int64(len(points)))
		var wg sync.WaitGroup
		for range min(width, len(cells)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(cells)); k = next.Add(1) - 1 {
					idx := cells[k]
					if int64(idx) > lowest.Load() {
						continue
					}
					cycles, ipc, err := exec(s.Configs[idx/nb], s.Benches[idx%nb])
					if err != nil {
						errs[idx] = err
						for cur := lowest.Load(); int64(idx) < cur && !lowest.CompareAndSwap(cur, int64(idx)); cur = lowest.Load() {
						}
						continue
					}
					points[idx].SimCycles, points[idx].SimIPC = cycles, ipc
				}
			}()
		}
		wg.Wait()
		if i := lowest.Load(); i < int64(len(points)) {
			pt := &points[i]
			return fmt.Errorf("model: explore cell %s × %s: %w", pt.Config, pt.Bench, errs[i])
		}
		for _, idx := range cells {
			points[idx].Simulated = true
		}
		rep.Simulated += len(cells)
		return nil
	}
}
