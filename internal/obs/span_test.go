package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"largewindow/internal/telemetry"
)

func testSpans() []Span {
	return []Span{
		{CorrID: "abc", CellID: "c1", Cell: "base/treeadd", Name: SpanQueued, Src: "coordinator", Attempt: 1, StartUS: 1000, EndUS: 2000},
		{CorrID: "abc", CellID: "c1", Cell: "base/treeadd", Name: SpanLeased, Src: "coordinator", Attempt: 1, StartUS: 2000, EndUS: 9000},
		{CorrID: "abc", CellID: "c1", Cell: "base/treeadd", Name: SpanAttempt, Src: "worker:w0", Attempt: 1, StartUS: 2100, EndUS: 8900},
		{CorrID: "abc", CellID: "c1", Cell: "base/treeadd", Name: SpanExecuting, Src: "worker:w0", Attempt: 1, StartUS: 2200, EndUS: 8700},
		{CorrID: "abc", CellID: "c1", Cell: "base/treeadd", Name: SpanPersisting, Src: "coordinator", Attempt: 1, StartUS: 9000, EndUS: 9500},
		{CorrID: "abc", CellID: "c2", Cell: "wib/mst", Name: SpanQueued, Src: "coordinator", Attempt: 1, StartUS: 1500, EndUS: 3000},
	}
}

func TestSpanLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewSpanLog(&buf)
	for _, sp := range testSpans() {
		l.Record(sp)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6", got)
	}
	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 6 {
		t.Fatalf("read %d spans, want 6", len(back))
	}
	if back[0] != testSpans()[0] {
		t.Fatalf("first span round-tripped as %+v", back[0])
	}
}

func TestSpanLogNilIsDisabled(t *testing.T) {
	var l *SpanLog
	l.Record(Span{Name: SpanQueued}) // must not panic
	if l.Count() != 0 {
		t.Fatal("nil log counted a span")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanLogConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	l := NewSpanLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Span{CorrID: "x", CellID: "c", Name: SpanExecuting, Src: "worker:w"})
			}
		}()
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the log: %v", err)
	}
	if len(back) != 800 {
		t.Fatalf("read %d spans, want 800", len(back))
	}
}

func TestReadSpansRejectsFutureSchema(t *testing.T) {
	in := `{"schema_version":99,"kind":"fleet-spans"}` + "\n"
	if _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestJSONLReadersShareOneContract runs both JSONL readers — telemetry
// samples and fleet spans, one schema.ReadJSONL underneath — through the
// same cases.
func TestJSONLReadersShareOneContract(t *testing.T) {
	readers := []struct {
		name, header, record string
		read                 func(string) (int, error)
	}{
		{"samples", `{"schema_version":1,"kind":"telemetry-samples"}`, `{"cycle":1000,"interval":1000}`,
			func(in string) (int, error) {
				out, err := telemetry.ReadSamples(strings.NewReader(in))
				return len(out), err
			}},
		{"spans", `{"schema_version":1,"kind":"fleet-spans"}`, `{"corr_id":"a","cell_id":"c","name":"queued","src":"coordinator","start_us":1,"end_us":2}`,
			func(in string) (int, error) {
				out, err := ReadSpans(strings.NewReader(in))
				return len(out), err
			}},
	}
	for _, r := range readers {
		for _, tc := range []struct {
			name, in string
			n        int    // records decoded when err is empty
			err      string // substring of the error
		}{
			{"current header", r.header + "\n" + r.record + "\n\n" + r.record + "\n", 2, ""},
			{"headerless legacy stream", r.record + "\n" + r.record + "\n", 2, ""},
			{"newer header", `{"schema_version":99}` + "\n" + r.record + "\n", 0, "version 99 not supported"},
			{"garbage line", r.header + "\n" + r.record + "\nnot json\n", 0, "line 3"},
		} {
			n, err := r.read(tc.in)
			switch {
			case tc.err == "" && (err != nil || n != tc.n):
				t.Errorf("%s/%s: %d records, %v; want %d", r.name, tc.name, n, err, tc.n)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Errorf("%s/%s: err %v, want one naming %q", r.name, tc.name, err, tc.err)
			}
		}
	}
}

func TestStitchSummary(t *testing.T) {
	spans := testSpans()
	// Inject a correlation mismatch on c2.
	spans = append(spans, Span{CorrID: "zzz", CellID: "c2", Name: SpanLeased, Src: "coordinator", StartUS: 3000, EndUS: 4000})
	sum := StitchSummary(spans)
	if sum.Spans != 7 || sum.Cells != 2 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.PerStage[SpanQueued] != 2 || sum.PerStage[SpanExecuting] != 1 {
		t.Fatalf("per-stage %+v", sum.PerStage)
	}
	if want := []string{"coordinator", "worker:w0"}; strings.Join(sum.Sources, ",") != strings.Join(want, ",") {
		t.Fatalf("sources %v", sum.Sources)
	}
	if sum.CorrMismatch != 1 {
		t.Fatalf("CorrMismatch = %d, want 1", sum.CorrMismatch)
	}
	if sum.FirstUS != 1000 || sum.LastUS != 9500 {
		t.Fatalf("window [%d, %d]", sum.FirstUS, sum.LastUS)
	}
}

// TestStitchChromeTrace proves the stitched output is a valid Chrome
// trace by the repo's own validator — the same property the fleet-trace
// smoke gate asserts end-to-end.
func TestStitchChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := StitchChromeTrace(&buf, testSpans()); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stitched trace fails the trace validator: %v", err)
	}
	staged := 0
	for _, stage := range []string{SpanQueued, SpanLeased, SpanAttempt, SpanExecuting, SpanPersisting} {
		if st.PerCat[stage] == 0 {
			t.Errorf("stage %q missing from trace categories: %v", stage, st.PerCat)
		}
		staged += st.PerCat[stage]
	}
	// 6 duration events across the stages; metadata rows ride alongside.
	if staged != 6 {
		t.Fatalf("trace has %d stage events, want 6 (cats %v)", staged, st.PerCat)
	}
	out := buf.String()
	if !strings.Contains(out, `"corr_id":"abc"`) {
		t.Error("correlation IDs did not survive into trace args")
	}
}
