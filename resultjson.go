package largewindow

import (
	"encoding/json"
	"fmt"

	"largewindow/internal/schema"
)

// resultFields is Result without its JSON methods, so the wire wrapper
// below encodes Result's own tagged fields instead of recursing.
type resultFields Result

// resultWire is Result's JSON shape: its fields behind a schema_version
// stamp, written on encode and checked on decode, so results persisted
// by one release (campaign caches, -telemetry-out captures, crash-dump
// attachments) decode — or fail loudly — under another.
type resultWire struct {
	SchemaVersion int `json:"schema_version"`
	resultFields
}

// MarshalJSON encodes the result with the minimal schema version its
// fields require: v1 for detailed runs and v2 when sampling fields are
// present — byte-identical to earlier encoders, so persisted results
// and fixtures stay stable. (Result carries no workload identity
// fields, so it never needs the v3 stamp campaign records use.)
func (r Result) MarshalJSON() ([]byte, error) {
	version := 1
	if r.Sampling != nil {
		version = 2
	}
	return json.Marshal(resultWire{SchemaVersion: version, resultFields: resultFields(r)})
}

// UnmarshalJSON decodes a result, rejecting encodings from a newer
// schema than this build understands (version 0, i.e. absent, is
// accepted as the pre-versioning legacy encoding).
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("largewindow: decode result: %w", err)
	}
	if err := schema.Check(w.SchemaVersion, schema.ResultVersion, "result"); err != nil {
		return err
	}
	*r = Result(w.resultFields)
	return nil
}
