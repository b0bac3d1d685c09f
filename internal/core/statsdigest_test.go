package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"largewindow/internal/golden"
	"largewindow/internal/workload"
)

const statsDigestFile = "testdata/stats_digest.golden"

// statsDigestConfigs is one machine per reinsertion organization, so a
// host-speed refactor of any of them shows up as a digest change.
func statsDigestConfigs() []Config {
	ideal := WIBConfigSized(2048, 0)
	ideal.Name = "WIB-ideal/program-order"
	ideal.WIB.Banked = false
	ideal.WIB.Policy = PolicyProgramOrder
	rr := WIBConfigSized(2048, 0)
	rr.Name = "WIB-ideal/rr-load"
	rr.WIB.Banked = false
	rr.WIB.Policy = PolicyRoundRobinLoad
	return []Config{
		DefaultConfig(), WIBDefault(), WIBConfigSized(256, 16),
		ideal, rr, WIBPoolOfBlocks(2048, 16, 32), WIBWithSliceCore(2048, 2),
	}
}

// TestStatsDigestGolden pins the complete Stats (exported counters and the
// unexported accumulators behind AvgROBOccupancy / AvgMLP / ClassCount) of
// every registry kernel at test scale under every reinsertion
// organization. The digests were recorded from the commit before the
// indexed LSQ / bitmap bank select landed; a timing-neutral refactor must
// leave every line unchanged.
//
// After a deliberate timing-model change, delete the golden file and run
// the test once: it re-records the file and fails, and the next run passes.
func TestStatsDigestGolden(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("cells", func(t *testing.T) {
		for _, spec := range workload.All() {
			prog := spec.Build(workload.ScaleTest)
			for _, cfg := range statsDigestConfigs() {
				t.Run(spec.Name+"/"+cfg.Name, func(t *testing.T) {
					t.Parallel()
					p, err := New(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					st, err := p.Run(0, 200_000_000)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
					mu.Lock()
					got[spec.Name+" "+cfg.Name] = fmt.Sprintf("%x", sum)
					mu.Unlock()
				})
			}
		}
	})
	if t.Failed() {
		return
	}

	golden.Check(t, statsDigestFile,
		"<kernel> <config> <sha256 of fmt %+v of core.Stats>, ScaleTest, run to halt.", got)
}
