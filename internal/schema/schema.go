// Package schema centralizes the on-disk JSON schema versioning shared
// by every persisted artifact family: campaign result records, crash
// dumps (`wibtrace -replay`), and telemetry sample streams. Each artifact
// embeds a `schema_version` field; readers accept any version up to the
// current one (older encodings decode through the compat path their
// golden tests pin down) and reject newer versions with a descriptive
// error rather than misreading fields that did not exist when the reader
// was written.
package schema

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Artifact schema versions. Bump a constant when its artifact's encoding
// changes shape, and extend the corresponding golden-file decode test
// with the previous version.
const (
	// ResultVersion covers campaign cell records and the public
	// largewindow.Result encoding. Version 2 adds the sampled-simulation
	// fields (plan, interval IPCs, stddev, 95% CI); version 3 adds the
	// workload identity fields for trace/synthetic sources. Encoders stamp
	// the minimal version whose fields the record uses, so pre-existing
	// artifacts stay byte-identical and old readers keep decoding them.
	ResultVersion = 3
	// CrashDumpVersion covers core.SimError JSON crash dumps. Version 0
	// is the legacy pre-versioning encoding, still accepted on decode.
	CrashDumpVersion = 1
	// TelemetryVersion covers the JSONL sample-stream header line.
	TelemetryVersion = 1
	// CheckpointVersion covers emu functional-fast-forward checkpoints
	// persisted in the campaign store (registers, memory image, warm
	// rings).
	CheckpointVersion = 1
	// ServiceVersion covers the distributed-campaign HTTP protocol
	// (internal/service): submit/lease/heartbeat/complete bodies. A
	// coordinator rejects requests stamped with a newer version than it
	// understands instead of misreading them. Version 2 carries sampling
	// plans inside cells: a v1 worker leasing from a v2 coordinator
	// rejects the response rather than silently running the cell without
	// its plan. Version 3 carries workload refs + content identities
	// inside cells, so trace/synthetic workloads dispatch by name without
	// shipping program bytes. Version 4 lets a submission wait for its
	// results and a lease request carry the worker's previous outcome
	// (DESIGN.md §10.6): a v3 coordinator would drop those fields
	// unread, so it must refuse the body (400) instead — while a v4
	// coordinator keeps serving every v3 shape (separate submit / result /
	// lease / complete requests).
	ServiceVersion = 4
	// EventVersion covers the coordinator's SSE lifecycle-event stream
	// (internal/obs): every event carries it inline so dashboard clients
	// can refuse streams newer than they understand.
	EventVersion = 1
	// SpanVersion covers fleet span logs (internal/obs): the JSONL files
	// `wibserve -span-log` writes and `wibtrace -fleet` stitches into a
	// Chrome trace.
	SpanVersion = 1
	// TraceVersion covers the binary workload trace container
	// (internal/trace, `.wtr` files): the version is stamped both in the
	// uvarint format field and in the JSON header's schema_version.
	TraceVersion = 1
)

// Header is the leading line of stream-shaped artifacts (telemetry JSONL)
// and the sniffable prefix of document-shaped ones.
type Header struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind,omitempty"`
}

// Check validates a decoded artifact's version against the reader's
// current version. Version 0 is the legacy unversioned encoding and is
// always accepted: every artifact family predates its schema_version
// field, and old files must keep decoding.
func Check(got, current int, what string) error {
	if got < 0 || got > current {
		return fmt.Errorf("schema: %s version %d not supported (reader understands ≤ %d)", what, got, current)
	}
	return nil
}

// ReadJSONL decodes a stream-shaped artifact: one JSON record of type T
// per line, blank lines skipped. A bare header line (sniffHeader) is
// checked against the reader's current version; streams written before
// their family was versioned carry none and still decode. A line that
// does not decode fails with its line number; what names the artifact in
// errors.
func ReadJSONL[T any](r io.Reader, version int, what string) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []T
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if h, ok := sniffHeader(line); ok {
			if err := Check(h.SchemaVersion, version, what); err != nil {
				return nil, err
			}
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("schema: %s line %d: %w", what, lineNo, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("schema: reading %s: %w", what, err)
	}
	return out, nil
}

// sniffHeader reports whether the JSON document on line is a bare header
// (a schema_version marker with no payload fields), returning the decoded
// header when it is. Payload records that happen to carry their version
// inline are NOT headers and return ok=false.
func sniffHeader(line []byte) (Header, bool) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(line, &probe); err != nil {
		return Header{}, false
	}
	if _, hasVer := probe["schema_version"]; !hasVer {
		return Header{}, false
	}
	for k := range probe {
		if k != "schema_version" && k != "kind" {
			return Header{}, false
		}
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, false
	}
	return h, true
}
