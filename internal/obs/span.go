package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"largewindow/internal/schema"
	"largewindow/internal/telemetry"
)

// Lifecycle span names, one per stage of a cell's trip through the
// fleet. Coordinator-side spans cover scheduling (queued, leased,
// persisting); worker-side spans cover execution (attempt, executing)
// and ride the completion request back to the coordinator's span log.
const (
	SpanQueued     = "queued"     // submit → lease (coordinator)
	SpanLeased     = "leased"     // lease → completion/expiry (coordinator)
	SpanAttempt    = "attempt"    // lease receipt → outcome delivered (worker)
	SpanExecuting  = "executing"  // simulation wall time (worker)
	SpanPersisting = "persisting" // store.Put of the record (coordinator)
)

// Span is one closed lifecycle interval of one cell, correlated across
// processes by the CorrID minted at submit. Src names the recording
// hop: "coordinator" or "worker:<id>".
type Span struct {
	CorrID  string `json:"corr_id"`
	CellID  string `json:"cell_id"`
	Cell    string `json:"cell,omitempty"`
	Name    string `json:"name"`
	Src     string `json:"src"`
	Attempt int    `json:"attempt,omitempty"`
	StartUS int64  `json:"start_us"` // unix microseconds
	EndUS   int64  `json:"end_us"`
	Note    string `json:"note,omitempty"`
}

// SpanLog is a concurrency-safe JSONL appender for lifecycle spans,
// opened with a schema-version header line. A nil *SpanLog is valid and
// records nothing — the disabled state.
type SpanLog struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	n   uint64
	err error
}

// NewSpanLog builds a span log writing to w, leading with the schema
// header ReadSpans validates.
func NewSpanLog(w io.Writer) *SpanLog {
	bw := bufio.NewWriter(w)
	l := &SpanLog{bw: bw, enc: json.NewEncoder(bw)}
	if err := l.enc.Encode(schema.Header{
		SchemaVersion: schema.SpanVersion,
		Kind:          "fleet-spans",
	}); err != nil {
		l.err = err
	}
	return l
}

// Record appends one span; a nil log ignores the call. The encode body
// lives in record so the disabled path stays allocation-free — &sp
// escapes to the encoder there, not here.
func (l *SpanLog) Record(sp Span) {
	if l == nil {
		return
	}
	l.record(sp)
}

func (l *SpanLog) record(sp Span) {
	l.mu.Lock()
	if err := l.enc.Encode(&sp); err != nil && l.err == nil {
		l.err = err
	}
	l.n++
	l.mu.Unlock()
}

// Count reports spans recorded so far.
func (l *SpanLog) Count() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Flush drains buffered spans to the underlying writer and returns the
// first error seen; a nil log reports none.
func (l *SpanLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// ReadSpans parses a span-log JSONL stream, validating its header.
func ReadSpans(r io.Reader) ([]Span, error) {
	return schema.ReadJSONL[Span](r, schema.SpanVersion, "span log")
}

// FleetSummary is what StitchSummary reports about a span set: the
// shape `wibtrace -fleet` prints and the smoke gates assert on.
type FleetSummary struct {
	Spans        int
	Cells        int            // distinct cell IDs
	PerStage     map[string]int // span count per lifecycle stage
	Sources      []string       // distinct recording hops, sorted
	CorrMismatch int            // cells whose spans disagree on corr ID
	FirstUS      int64
	LastUS       int64
}

// StitchSummary validates and summarizes a span set.
func StitchSummary(spans []Span) FleetSummary {
	sum := FleetSummary{PerStage: map[string]int{}}
	corr := map[string]string{}
	mismatched := map[string]bool{}
	srcs := map[string]bool{}
	cells := map[string]bool{}
	for i, sp := range spans {
		sum.Spans++
		sum.PerStage[sp.Name]++
		cells[sp.CellID] = true
		srcs[sp.Src] = true
		if prev, ok := corr[sp.CellID]; !ok {
			corr[sp.CellID] = sp.CorrID
		} else if prev != sp.CorrID && !mismatched[sp.CellID] {
			mismatched[sp.CellID] = true
			sum.CorrMismatch++
		}
		if i == 0 || sp.StartUS < sum.FirstUS {
			sum.FirstUS = sp.StartUS
		}
		if sp.EndUS > sum.LastUS {
			sum.LastUS = sp.EndUS
		}
	}
	sum.Cells = len(cells)
	for s := range srcs {
		sum.Sources = append(sum.Sources, s)
	}
	sort.Strings(sum.Sources)
	return sum
}

// StitchChromeTrace renders a fleet span set as one Chrome trace: a
// process row per recording hop (coordinator first, then workers), a
// thread row per cell within it, so a whole campaign reads as a single
// timeline across the fleet. Output passes telemetry.ReadChromeTrace.
func StitchChromeTrace(w io.Writer, spans []Span) error {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Src != ordered[j].Src {
			// Coordinator rows lead; workers follow alphabetically.
			if ordered[i].Src == "coordinator" {
				return true
			}
			if ordered[j].Src == "coordinator" {
				return false
			}
			return ordered[i].Src < ordered[j].Src
		}
		return ordered[i].StartUS < ordered[j].StartUS
	})
	fleet := make([]telemetry.FleetSpan, 0, len(ordered))
	for _, sp := range ordered {
		lane := sp.Cell
		if lane == "" {
			lane = sp.CellID
		}
		name := sp.Name
		if sp.Attempt > 1 {
			name = fmt.Sprintf("%s #%d", sp.Name, sp.Attempt)
		}
		args := map[string]interface{}{
			"corr_id": sp.CorrID,
			"cell_id": sp.CellID,
		}
		if sp.Attempt > 0 {
			args["attempt"] = sp.Attempt
		}
		if sp.Note != "" {
			args["note"] = sp.Note
		}
		fleet = append(fleet, telemetry.FleetSpan{
			Track:   sp.Src,
			Lane:    lane,
			Name:    name,
			Cat:     sp.Name,
			StartUS: sp.StartUS,
			EndUS:   sp.EndUS,
			Args:    args,
		})
	}
	return telemetry.WriteChromeSpans(w, fleet)
}
