package campaign

import (
	"strings"
	"testing"
	"time"
)

// TestRenderLineSane drives the progress line through every degenerate
// snapshot shape a live campaign can produce and asserts the rendered
// figures stay sane: no NaN/Inf/negative rates, no ETA when no estimate
// exists, and the headline counts always present.
func TestRenderLineSane(t *testing.T) {
	cases := []struct {
		name     string
		s        Snapshot
		expected uint64
		want     []string // substrings that must appear
		wantNot  []string // substrings that must not
	}{
		{
			name:     "campaign start: nothing done, zero elapsed",
			s:        Snapshot{Total: 0, Elapsed: 0},
			expected: 40,
			want:     []string{"campaign 0/40 cells", "0 instrs/s"},
			wantNot:  []string{"ETA", "NaN", "Inf", "-"},
		},
		{
			name:    "zero everything",
			s:       Snapshot{},
			want:    []string{"campaign 0/0 cells", "0 instrs/s"},
			wantNot: []string{"ETA", "NaN", "Inf"},
		},
		{
			name: "all cache hits: done without executing",
			s: Snapshot{
				Total: 10, Done: 5, CacheHits: 5, Executed: 0,
				Elapsed: 2 * time.Second,
			},
			expected: 10,
			want:     []string{"campaign 5/10 cells", "(5 cached)", "0 instrs/s"},
			wantNot:  []string{"ETA", "NaN", "Inf"},
		},
		{
			name: "instrs counted but zero elapsed",
			s: Snapshot{
				Total: 4, Done: 1, Executed: 1, Instrs: 1_000_000, Elapsed: 0,
			},
			want:    []string{"campaign 1/4 cells", "0 instrs/s"},
			wantNot: []string{"ETA", "NaN", "Inf"},
		},
		{
			name: "healthy mid-campaign",
			s: Snapshot{
				Total: 40, Done: 10, Executed: 10, Instrs: 50_000_000,
				Elapsed: 10 * time.Second,
			},
			want:    []string{"campaign 10/40 cells", "5.0M instrs/s", "ETA 0:30"},
			wantNot: []string{"NaN", "Inf"},
		},
		{
			name: "finished: no ETA",
			s: Snapshot{
				Total: 8, Done: 8, Executed: 8, Instrs: 8_000,
				Elapsed: 4 * time.Second,
			},
			want:    []string{"campaign 8/8 cells", "2.0k instrs/s"},
			wantNot: []string{"ETA"},
		},
		{
			name: "failures and retries surface",
			s: Snapshot{
				Total: 6, Done: 4, Executed: 4, Failed: 2, Retries: 3,
				Instrs: 400, Elapsed: time.Second,
			},
			want: []string{"(2 FAILED)", "(3 retried)", "400 instrs/s"},
		},
		{
			name: "checkpoint cache activity surfaces",
			s: Snapshot{
				Total: 4, Done: 2, Executed: 2, Elapsed: time.Second,
				CkptBuilt: 2, CkptReused: 6,
			},
			want: []string{"ckpt 2 built/6 reused"},
		},
		{
			name: "expected larger than engine total wins",
			s: Snapshot{
				Total: 3, Done: 3, Executed: 3, Elapsed: time.Second,
			},
			expected: 12,
			want:     []string{"campaign 3/12 cells", "ETA"},
		},
		{
			name: "absurd extrapolation suppressed",
			s: Snapshot{
				Total: 1_000_000, Done: 1, Executed: 1,
				Elapsed: 10 * time.Hour,
			},
			want:    []string{"campaign 1/1000000 cells"},
			wantNot: []string{"ETA"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := renderLine(tc.s, tc.expected)
			for _, w := range tc.want {
				if !strings.Contains(line, w) {
					t.Errorf("line %q missing %q", line, w)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(line, w) {
					t.Errorf("line %q must not contain %q", line, w)
				}
			}
		})
	}
}

// TestRenderETANegativeElapsed guards against a skewed clock producing a
// negative elapsed duration: the ETA must vanish, not go negative.
func TestRenderETANegativeElapsed(t *testing.T) {
	s := Snapshot{Total: 10, Done: 2, Executed: 2, Elapsed: -5 * time.Second}
	if eta, ok := renderETA(s, 10); ok {
		t.Fatalf("negative elapsed produced ETA %q; want none", eta)
	}
	line := renderLine(s, 10)
	if strings.Contains(line, "ETA") || strings.Contains(line, "-") {
		t.Fatalf("line %q renders a negative-elapsed artifact", line)
	}
}
