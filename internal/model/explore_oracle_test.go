package model

import (
	"cmp"
	"fmt"
	"slices"

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
