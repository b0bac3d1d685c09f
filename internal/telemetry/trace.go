package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"largewindow/internal/isa"
)

// InstrRecord is the lifecycle of one dynamic instruction: the cycle it
// passed each pipeline milestone, plus every trip it made into the WIB.
// The core's trace ring archives these records (core.Processor.Traces),
// and each writer renders Instr itself. Cycle fields are zero when the
// instruction never reached that stage.
type InstrRecord struct {
	Seq       uint64
	PC        uint64
	Instr     isa.Instr
	Fetched   int64
	Dispatch  int64
	Issued    int64 // last issue (re-issues overwrite)
	Completed int64
	Committed int64
	Parks     []int64 // cycles the instruction entered the WIB
	Reinserts []int64 // cycles it was reinserted into an issue queue
	Squashed  bool
	SquashCyc int64
}

// end returns the record's last known cycle (commit, squash, or the
// latest stage it reached), used to close open stage intervals.
func (r *InstrRecord) end() int64 {
	e := r.Committed
	if r.Squashed && r.SquashCyc > e {
		e = r.SquashCyc
	}
	for _, c := range []int64{r.Completed, r.Issued, r.Dispatch, r.Fetched} {
		if c > e {
			e = c
		}
	}
	return e
}

// stageSpan is one closed [From, To) pipeline interval of an instruction.
type stageSpan struct {
	Name     string
	From, To int64
}

// spans decomposes a record into its pipeline stage intervals: fetch,
// queue (issue-queue residency), wib (each park→reinsert trip), exec
// (issue→complete), and commit-wait.
func (r *InstrRecord) spans() []stageSpan {
	var out []stageSpan
	add := func(name string, from, to int64) {
		if from <= 0 || to <= from {
			return
		}
		out = append(out, stageSpan{Name: name, From: from, To: to})
	}
	end := r.end()
	add("fetch", r.Fetched, r.Dispatch)
	queueEnd := r.Issued
	if len(r.Parks) > 0 && (queueEnd == 0 || r.Parks[0] < queueEnd) {
		queueEnd = r.Parks[0]
	}
	if queueEnd == 0 {
		queueEnd = end
	}
	add("queue", r.Dispatch, queueEnd)
	for i, park := range r.Parks {
		to := end
		if i < len(r.Reinserts) {
			to = r.Reinserts[i]
		}
		add("wib", park, to)
	}
	add("exec", r.Issued, r.Completed)
	add("commit-wait", r.Completed, r.Committed)
	return out
}

// chromeEvent is one Chrome trace-event (the "trace event format"
// consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   int64                  `json:"ts"`
	Dur  int64                  `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int64                  `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object form of a Chrome trace.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeLanes folds instruction seqs onto a bounded number of display
// rows; instructions this far apart in program order are never in flight
// together on any configuration we simulate (max active list 4K).
const chromeLanes = 256

// WriteChromeTrace renders lifecycle records as Chrome trace-event JSON
// (one microsecond per cycle). Each instruction draws one complete ("X")
// event per pipeline stage on lane seq%chromeLanes; squashed instructions
// additionally emit an instant ("i") event at their squash cycle.
func WriteChromeTrace(w io.Writer, recs []InstrRecord) error {
	f := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i := range recs {
		r := &recs[i]
		lane := int64(r.Seq % chromeLanes)
		disasm := r.Instr.String()
		args := map[string]interface{}{
			"seq": r.Seq, "pc": r.PC, "instr": disasm,
		}
		for _, sp := range r.spans() {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: disasm, Cat: sp.Name, Ph: "X",
				TS: sp.From, Dur: sp.To - sp.From, TID: lane, Args: args,
			})
		}
		if r.Squashed {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "squash", Cat: "squash", Ph: "i",
				TS: r.SquashCyc, TID: lane, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// FleetSpan is one distributed-campaign lifecycle span prepared for
// Chrome rendering: Track names the process row (coordinator, one per
// worker), Lane the thread row within it (one per cell), and the
// timestamps are microseconds (already normalized or absolute — the
// writer rebases everything to the earliest start).
type FleetSpan struct {
	Track   string
	Lane    string
	Name    string
	Cat     string
	StartUS int64
	EndUS   int64
	Args    map[string]interface{}
}

// WriteChromeSpans renders fleet lifecycle spans as Chrome trace-event
// JSON: one pid per distinct Track (in order of first appearance), one
// tid per distinct Lane within it, with process_name/thread_name
// metadata so chrome://tracing labels the rows. The output satisfies
// ReadChromeTrace, the validator the smoke gates already use.
func WriteChromeSpans(w io.Writer, spans []FleetSpan) error {
	f := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	var base int64
	for i, sp := range spans {
		if i == 0 || sp.StartUS < base {
			base = sp.StartUS
		}
	}
	pids := map[string]int{}
	tids := map[string]int64{}
	meta := func(name string, pid int, tid int64, label string) {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: name, Ph: "M", PID: pid, TID: tid,
			Args: map[string]interface{}{"name": label},
		})
	}
	for _, sp := range spans {
		pid, ok := pids[sp.Track]
		if !ok {
			pid = len(pids)
			pids[sp.Track] = pid
			meta("process_name", pid, 0, sp.Track)
		}
		laneKey := sp.Track + "\x00" + sp.Lane
		tid, ok := tids[laneKey]
		if !ok {
			tid = int64(len(tids))
			tids[laneKey] = tid
			meta("thread_name", pid, tid, sp.Lane)
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X", PID: pid, TID: tid, Args: sp.Args,
			TS: sp.StartUS - base, Dur: max(sp.EndUS-sp.StartUS, 0),
		})
	}
	return json.NewEncoder(w).Encode(&f)
}

// ChromeTraceStats summarizes a parsed Chrome trace for validation and
// rendering: event counts per stage category and the cycle range covered.
type ChromeTraceStats struct {
	Events     int
	PerCat     map[string]int
	FirstCycle int64
	LastCycle  int64
}

// ReadChromeTrace parses and validates a Chrome trace-event file written
// by WriteChromeTrace.
func ReadChromeTrace(r io.Reader) (*ChromeTraceStats, error) {
	var f chromeTraceFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("telemetry: bad chrome trace: %w", err)
	}
	st := &ChromeTraceStats{PerCat: map[string]int{}}
	for _, ev := range f.TraceEvents {
		st.Events++
		st.PerCat[ev.Cat]++
		if st.Events == 1 || ev.TS < st.FirstCycle {
			st.FirstCycle = ev.TS
		}
		if end := ev.TS + ev.Dur; end > st.LastCycle {
			st.LastCycle = end
		}
	}
	return st, nil
}

// kanataEvent is one line of the cycle-ordered Kanata command stream.
type kanataEvent struct {
	cycle int64
	order int // tiebreak: preserve emission order within a cycle
	line  string
}

// Kanata stage mnemonics used by WriteKanata.
const (
	kanataFetch  = "F"  // in the fetch queue
	kanataQueue  = "Iq" // in an issue queue
	kanataWIB    = "Wb" // parked in the WIB
	kanataExec   = "X"  // executing / memory access outstanding
	kanataCommit = "Cm" // done, waiting for in-order commit
)

// WriteKanata renders lifecycle records as a Kanata-style pipeline view
// (the log format of the Onikiri2/Konata pipeline visualizer): a "Kanata
// 0004" header, C= / C cycle records, I+L instruction declarations, S/E
// stage intervals, and R retire (type 0) or flush (type 1) records.
func WriteKanata(w io.Writer, recs []InstrRecord) error {
	var evs []kanataEvent
	n := 0
	emit := func(cycle int64, format string, args ...interface{}) {
		evs = append(evs, kanataEvent{cycle: cycle, order: n, line: fmt.Sprintf(format, args...)})
		n++
	}
	stageFor := func(sp stageSpan) string {
		switch sp.Name {
		case "fetch":
			return kanataFetch
		case "queue":
			return kanataQueue
		case "wib":
			return kanataWIB
		case "exec":
			return kanataExec
		default:
			return kanataCommit
		}
	}
	for i := range recs {
		r := &recs[i]
		id := uint64(i)
		start := r.Fetched
		if start <= 0 {
			start = r.Dispatch
		}
		if start <= 0 {
			continue
		}
		emit(start, "I\t%d\t%d\t0", id, r.Seq)
		emit(start, "L\t%d\t0\t%d: %s", id, r.PC, r.Instr)
		for _, sp := range r.spans() {
			st := stageFor(sp)
			emit(sp.From, "S\t%d\t0\t%s", id, st)
			emit(sp.To, "E\t%d\t0\t%s", id, st)
		}
		switch {
		case r.Squashed:
			emit(r.SquashCyc, "R\t%d\t%d\t1", id, r.Seq)
		case r.Committed > 0:
			emit(r.Committed, "R\t%d\t%d\t0", id, r.Seq)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].cycle != evs[j].cycle {
			return evs[i].cycle < evs[j].cycle
		}
		return evs[i].order < evs[j].order
	})
	bw := &strings.Builder{}
	fmt.Fprintf(bw, "Kanata\t0004\n")
	var cur int64
	first := true
	for _, ev := range evs {
		if first {
			fmt.Fprintf(bw, "C=\t%d\n", ev.cycle)
			cur = ev.cycle
			first = false
		} else if ev.cycle > cur {
			fmt.Fprintf(bw, "C\t%d\n", ev.cycle-cur)
			cur = ev.cycle
		}
		fmt.Fprintf(bw, "%s\n", ev.line)
	}
	_, err := io.WriteString(w, bw.String())
	return err
}

// KanataStats summarizes a parsed Kanata stream for validation.
type KanataStats struct {
	Instructions int
	Retired      int
	Flushed      int
	StageStarts  int
	Cycles       int64
}

// ReadKanata parses and validates a Kanata stream written by WriteKanata.
func ReadKanata(r io.Reader) (*KanataStats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "Kanata") {
		return nil, fmt.Errorf("telemetry: not a Kanata stream (missing header)")
	}
	st := &KanataStats{}
	for i, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		fields := strings.Split(ln, "\t")
		switch fields[0] {
		case "C=", "C":
			var d int64
			if len(fields) < 2 {
				return nil, fmt.Errorf("telemetry: kanata line %d: bad cycle record %q", i+2, ln)
			}
			fmt.Sscanf(fields[1], "%d", &d)
			if fields[0] == "C=" {
				st.Cycles = d
			} else {
				st.Cycles += d
			}
		case "I":
			st.Instructions++
		case "S":
			st.StageStarts++
		case "R":
			if len(fields) >= 4 && fields[3] == "1" {
				st.Flushed++
			} else {
				st.Retired++
			}
		case "L", "E":
			// labels and stage-ends carry no summary state
		default:
			return nil, fmt.Errorf("telemetry: kanata line %d: unknown record %q", i+2, ln)
		}
	}
	return st, nil
}
