package main

import (
	"strings"
	"testing"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// TestTraceInstrsWildJump: a Jr to an address outside the code segment
// ends the trace with the emulator's error, after printing the
// instructions that did execute.
func TestTraceInstrsWildJump(t *testing.T) {
	b := isa.NewBuilder("wild")
	b.Li(isa.T0, 1000)
	b.Jr(isa.T0)
	b.Halt()
	var out strings.Builder
	err := traceInstrs(&out, emu.New(b.MustBuild()), 10)
	if err == nil || !strings.Contains(err.Error(), "pc 1000 outside code segment") {
		t.Fatalf("err = %v, want the emulator's pc-bounds error", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "pc=1") {
		t.Errorf("printed %q, want the two executed instructions", out.String())
	}
}

// TestTraceInstrsStopsAtHaltAndBudget: the trace ends at Halt, or after n
// instructions, whichever comes first.
func TestTraceInstrsStopsAtHaltAndBudget(t *testing.T) {
	b := isa.NewBuilder("short")
	b.Li(isa.T0, 1)
	b.Addi(isa.T0, isa.T0, 1)
	b.Halt()
	prog := b.MustBuild()
	for _, tc := range []struct {
		n     uint64
		lines int
	}{{2, 2}, {10, 3}} {
		var out strings.Builder
		if err := traceInstrs(&out, emu.New(prog), tc.n); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(out.String(), "\n"); got != tc.lines {
			t.Errorf("n=%d printed %d lines, want %d:\n%s", tc.n, got, tc.lines, out.String())
		}
	}
}

// TestParseWorkloadRejectsUnknownScale: -scale rnu used to profile at
// test scale without a word; it is bad usage that names the valid scales.
func TestParseWorkloadRejectsUnknownScale(t *testing.T) {
	_, _, err := parseWorkload("treeadd", "rnu")
	if err == nil || err.Error() != `unknown scale "rnu" (valid: test, run, full)` {
		t.Errorf("-scale rnu: err = %v, want the unknown-scale error", err)
	}
	if _, _, err := parseWorkload("no-such-kernel", "test"); err == nil {
		t.Error("-bench no-such-kernel accepted")
	}
	src, sc, err := parseWorkload("treeadd", "run")
	if err != nil || src.Name() != "treeadd" || sc != workload.ScaleRun {
		t.Errorf("-bench treeadd -scale run = %v, %v, %v", src, sc, err)
	}
}
