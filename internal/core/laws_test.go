package core

import (
	"fmt"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// A law is a relation between two machines that must hold on every
// registry kernel at test scale. Each law varies one structure and names
// what the variation must leave alone.
type law struct {
	name string
	a, b func() Config
	rel  relation
}

// A relation compares the Stats of a law's two machines on one kernel
// and describes how they break it, or returns "".
type relation func(a, b Stats) string

// equal: the second machine runs cycle for cycle as the first, so Cycles
// and every other Stats field agree. Name is left out: it names the
// machine, which is what a law varies. The register-file models keep
// their own counters (TwoLevel.Hits and Misses, MultiBanked's conflicts)
// outside Stats, so no field of Stats is the varied file's own.
func equal(a, b Stats) string {
	a.Name, b.Name = "", ""
	if a == b {
		return ""
	}
	if a.Cycles != b.Cycles {
		return fmt.Sprintf("%d cycles against %d", a.Cycles, b.Cycles)
	}
	return fmt.Sprintf("same cycles, other Stats:\n%+v\n%+v", a, b)
}

// equalBut is equal over the fields blank leaves.
func equalBut(blank func(*Stats)) relation {
	return func(a, b Stats) string {
		blank(&a)
		blank(&b)
		return equal(a, b)
	}
}

// coldFirstLevel blanks the active-list occupancy accumulators behind
// AvgROBOccupancy. A two-level file starts with an empty first level, so
// the first read of each register the reset mapping holds (at most 32 a
// class) misses and waits out the second level: 0 to 21 misses a kernel
// on Base. The cycle count never moves, but on treeadd, perimeter, em3d
// and facerec the active list holds instructions a few cycles longer.
func coldFirstLevel(s *Stats) { s.robOccupancy, s.occupancySamples = 0, 0 }

// singleLevelWIB is WIB/2048 with a single-cycle file: no register read
// ever waits.
func singleLevelWIB() Config {
	cfg := WIBConfigSized(2048, 0)
	cfg.RegFile = RFSingle
	return cfg
}

// twoLevelBase is the base machine with the paper's two-level file (4
// read ports, 4-cycle second level) and a first level of 256: each
// class's file has 128 registers, so its first level holds them all.
func twoLevelBase() Config {
	cfg := DefaultConfig()
	cfg.Name = "32-IQ/128-rf2l256"
	cfg.RegFile = RFTwoLevel
	cfg.RFL1Capacity = 256
	cfg.RFReadPorts = 4
	cfg.RFL2Latency = 4
	return cfg
}

// laws is the table. A register file too big to bind must cost nothing:
// 8 banks of 32 read ports each outnumber the reads an 8-wide machine
// takes in a cycle, and a first level of 256 holds all 128 registers of
// a class, so it misses only on its cold start.
var laws = []law{
	{"multi-banked 8x32 is single-level on WIB/2048", singleLevelWIB, func() Config { return WIBMultiBankedRF(2048, 8, 32) }, equal},
	{"two-level with a first level of 256 is single-level on Base", DefaultConfig, twoLevelBase, equalBut(coldFirstLevel)},
}

// TestLaws holds every law on every registry kernel at test scale, each
// run to 200,000 committed instructions or to its halt.
func TestLaws(t *testing.T) {
	run := func(t *testing.T, cfg Config, prog *isa.Program) Stats {
		p, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(200_000, 200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	for _, spec := range workload.All() {
		prog := spec.Build(workload.ScaleTest)
		for _, l := range laws {
			t.Run(l.name+"/"+spec.Name, func(t *testing.T) {
				t.Parallel()
				if why := l.rel(run(t, l.a(), prog), run(t, l.b(), prog)); why != "" {
					t.Error(why)
				}
			})
		}
	}
}
