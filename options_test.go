package pace

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pace/internal/cluster"
)

// TestDefaultOptionsOperatingPoint pins the paper's operating point: the
// engine's defaults own the numbers, DefaultOptions reads them, and the
// engine configuration built from DefaultOptions is the engine's default.
func TestDefaultOptionsOperatingPoint(t *testing.T) {
	want := Options{
		Processors:    1,
		Window:        8,
		MinMatch:      20,
		BatchSize:     60,
		Match:         2,
		Mismatch:      -3,
		GapOpen:       -4,
		GapExtend:     -2,
		Band:          12,
		MinOverlap:    40,
		MinIdentity:   0.90,
		MinScoreRatio: 0.70,
	}
	if got := DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultOptions() = %+v, want %+v", got, want)
	}
	cfg, err := DefaultOptions().toConfig()
	if err != nil {
		t.Fatal(err)
	}
	if def := cluster.DefaultConfig(1); !reflect.DeepEqual(cfg, def) {
		t.Fatalf("toConfig(DefaultOptions()) = %+v, want cluster.DefaultConfig(1) = %+v", cfg, def)
	}
}

// TestNewSessionRejectsBadValues: the library is the one place values are
// range-checked, so every caller — the CLI, paced, a library user — gets the
// same refusal. The first cases are the value checks the pace CLI used to
// make itself; the rest were accepted before (an acceptance threshold above
// 1 or NaN merges nothing, zero thresholds merge on any overlap pattern).
func TestNewSessionRejectsBadValues(t *testing.T) {
	ests := testBenchmark(t, 20, 2, 7).ESTs
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"zero procs", func(o *Options) { o.Processors = 0 }, "cluster: MP.Procs must be >= 1"},
		{"sim without ranks", func(o *Options) { o.Simulated = true }, "pace: Simulated needs Processors >= 2"},
		{"zero window", func(o *Options) { o.Window = 0 }, "suffix: window 0 out of [1,12]"},
		{"zero psi", func(o *Options) { o.MinMatch = 0 }, "cluster: Psi 0 < Window 8"},
		{"psi below window", func(o *Options) { o.MinMatch = 4 }, "cluster: Psi 4 < Window 8"},
		{"zero batch", func(o *Options) { o.BatchSize = 0 }, "cluster: BatchSize must be >= 1"},
		{"zero overlap", func(o *Options) { o.MinOverlap = 0 }, "align: MinOverlap must be >= 1"},
		{"zero identity", func(o *Options) { o.MinIdentity = 0 }, "align: MinIdentity must be in (0,1]"},
		{"identity above one", func(o *Options) { o.MinIdentity = 1.5 }, "align: MinIdentity must be in (0,1]"},
		{"negative checkpoint interval", func(o *Options) { o.CheckpointInterval = -1 }, "cluster: checkpoint cadence must be >= 0"},
		{"negative slave timeout", func(o *Options) { o.SlaveTimeout = -1 }, "cluster: SlaveTimeout must be >= 0"},

		{"window above twelve", func(o *Options) { o.Window = 13; o.MinMatch = 20 }, "suffix: window 13 out of [1,12]"},
		{"NaN identity", func(o *Options) { o.MinIdentity = math.NaN() }, "align: MinIdentity must be in (0,1]"},
		{"zero score ratio", func(o *Options) { o.MinScoreRatio = 0 }, "align: MinScoreRatio must be in (0,1]"},
		{"score ratio above one", func(o *Options) { o.MinScoreRatio = 1.5 }, "align: MinScoreRatio must be in (0,1]"},
		{"NaN score ratio", func(o *Options) { o.MinScoreRatio = math.NaN() }, "align: MinScoreRatio must be in (0,1]"},
	}
	for _, tc := range cases {
		opt := DefaultOptions()
		tc.mut(&opt)
		if _, err := NewSession(opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSession error %v, want %q", tc.name, err, tc.want)
		}
		if _, err := Cluster(ests, opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Cluster error %v, want %q", tc.name, err, tc.want)
		}
	}

	// The bounds are inclusive at 1: exact-identity clustering is legal.
	opt := DefaultOptions()
	opt.MinIdentity, opt.MinScoreRatio, opt.MinOverlap = 1, 1, 1
	if _, err := NewSession(opt); err != nil {
		t.Errorf("thresholds at their bounds refused: %v", err)
	}
}
