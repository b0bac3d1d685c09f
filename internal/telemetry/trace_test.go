package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"largewindow/internal/isa"
)

// rec builds a straightforward committed instruction record.
func rec(seq uint64, fetch, disp, iss, comp, commit int64) InstrRecord {
	return InstrRecord{
		Seq: seq, PC: seq, Instr: isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		Fetched: fetch, Dispatch: disp, Issued: iss, Completed: comp, Committed: commit,
	}
}

func TestSpansCoverLifecycle(t *testing.T) {
	r := rec(1, 10, 12, 20, 25, 30)
	r.Parks = []int64{14}
	r.Reinserts = []int64{18}
	spans := r.spans()
	byName := map[string]stageSpan{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for name, want := range map[string][2]int64{
		"fetch": {10, 12}, "queue": {12, 14}, "wib": {14, 18},
		"exec": {20, 25}, "commit-wait": {25, 30},
	} {
		sp, ok := byName[name]
		if !ok || sp.From != want[0] || sp.To != want[1] {
			t.Fatalf("span %s = %+v, want %v (all: %+v)", name, sp, want, spans)
		}
	}
}

func TestSpansSkipUnreachedStages(t *testing.T) {
	r := InstrRecord{Seq: 2, Instr: isa.Instr{Op: isa.OpLd, Rd: 1, Rs1: 2}, Fetched: 5, Dispatch: 7, Squashed: true, SquashCyc: 9}
	for _, sp := range r.spans() {
		if sp.Name == "exec" || sp.Name == "commit-wait" {
			t.Fatalf("unreached stage %s emitted: %+v", sp.Name, sp)
		}
		if sp.To <= sp.From {
			t.Fatalf("empty span %+v", sp)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	recs := []InstrRecord{rec(1, 10, 12, 20, 25, 30), rec(2, 10, 12, 21, 26, 30)}
	recs[1].Squashed = true
	recs[1].SquashCyc = 27
	recs[1].Committed = 0

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatalf("write: %v", err)
	}
	st, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if st.Events == 0 || st.PerCat["exec"] != 2 || st.PerCat["squash"] != 1 {
		t.Fatalf("trace stats: %+v", st)
	}
	if st.FirstCycle != 10 || st.LastCycle < 27 {
		t.Fatalf("cycle range [%d,%d]", st.FirstCycle, st.LastCycle)
	}
}

func TestKanataRoundTrip(t *testing.T) {
	recs := []InstrRecord{rec(1, 10, 12, 20, 25, 30), rec(2, 11, 13, 0, 0, 0)}
	recs[1].Squashed = true
	recs[1].SquashCyc = 16

	var buf bytes.Buffer
	if err := WriteKanata(&buf, recs); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing header: %q", out[:min(40, len(out))])
	}
	if !strings.Contains(out, "C=\t10\n") {
		t.Fatalf("missing start-cycle record:\n%s", out)
	}
	st, err := ReadKanata(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if st.Instructions != 2 || st.Retired != 1 || st.Flushed != 1 {
		t.Fatalf("kanata stats: %+v", st)
	}
	if st.Cycles != 30 {
		t.Fatalf("final cycle = %d, want 30", st.Cycles)
	}
}

func TestReadKanataRejectsGarbage(t *testing.T) {
	if _, err := ReadKanata(strings.NewReader("hello\n")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := ReadKanata(strings.NewReader("Kanata\t0004\nZZ\t1\n")); err == nil {
		t.Fatal("expected unknown-record error")
	}
}
