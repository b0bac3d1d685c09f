package schema

import "testing"

func TestCheck(t *testing.T) {
	if err := Check(0, ResultVersion, "record"); err != nil {
		t.Errorf("legacy version 0 rejected: %v", err)
	}
	if err := Check(ResultVersion, ResultVersion, "record"); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if err := Check(ResultVersion+1, ResultVersion, "record"); err == nil {
		t.Error("future version accepted")
	}
	if err := Check(-1, ResultVersion, "record"); err == nil {
		t.Error("negative version accepted")
	}
}

func TestVersionsDeclared(t *testing.T) {
	// Every persisted artifact kind carries its own version constant; a
	// version accidentally zeroed (or removed) would silently accept
	// anything.
	versions := map[string]int{
		"result":     ResultVersion,
		"crash-dump": CrashDumpVersion,
		"telemetry":  TelemetryVersion,
		"checkpoint": CheckpointVersion,
	}
	for kind, v := range versions {
		if v < 1 {
			t.Errorf("%s schema version = %d, want >= 1", kind, v)
		}
	}
	if err := Check(CheckpointVersion, CheckpointVersion, "emu checkpoint"); err != nil {
		t.Errorf("current checkpoint version rejected: %v", err)
	}
	if err := Check(CheckpointVersion+1, CheckpointVersion, "emu checkpoint"); err == nil {
		t.Error("future checkpoint version accepted")
	}
}

func TestSniffHeader(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		ver  int
	}{
		{`{"schema_version":1,"kind":"telemetry-samples"}`, true, 1},
		{`{"schema_version":3}`, true, 3},
		{`{"cycle":1000,"interval":1000}`, false, 0},    // payload record
		{`{"schema_version":1,"cycle":1000}`, false, 0}, // version carried inline
		{`not json`, false, 0},
		{``, false, 0},
	}
	for _, c := range cases {
		h, ok := sniffHeader([]byte(c.line))
		if ok != c.ok {
			t.Errorf("sniffHeader(%q) ok=%v, want %v", c.line, ok, c.ok)
		}
		if ok && h.SchemaVersion != c.ver {
			t.Errorf("sniffHeader(%q) version=%d, want %d", c.line, h.SchemaVersion, c.ver)
		}
	}
}
