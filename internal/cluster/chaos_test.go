package cluster

// Chaos matrix: run the full sim-mode pipeline under injected faults and
// assert cluster-equivalence with a failure-free run. CI runs one scenario
// per job via PACE_CHAOS_SCENARIO; with the variable unset every scenario
// runs (the local default).
//
// Drop/duplication are deliberately absent: the master–slave protocol
// assumes reliable delivery (as MPI does), so those faults are exercised at
// the transport level in internal/mp, not end-to-end.

import (
	"os"
	"testing"
	"time"

	"pace/internal/mp"
)

type chaosScenario struct {
	name  string
	fault mp.FaultPlan
	retry mp.RetryConfig
}

var chaosScenarios = []chaosScenario{
	{
		name:  "crash-early",
		fault: mp.FaultPlan{Seed: 11, CrashRank: 2, CrashAfter: 1, CrashTag: tagReport},
	},
	{
		name:  "crash-mid",
		fault: mp.FaultPlan{Seed: 12, CrashRank: 3, CrashAfter: 3, CrashTag: tagReport},
	},
	{
		name:  "crash-late",
		fault: mp.FaultPlan{Seed: 13, CrashRank: 1, CrashAfter: 8, CrashTag: tagReport},
	},
	{
		name:  "delay",
		fault: mp.FaultPlan{Seed: 14, DelayProb: 0.3, Delay: 2 * time.Millisecond},
	},
	{
		name:  "transient",
		fault: mp.FaultPlan{Seed: 15, TransientProb: 0.1, TransientMax: 25},
		retry: mp.RetryConfig{MaxAttempts: 6, BaseDelay: 10 * time.Microsecond, Seed: 15},
	},
}

func TestChaos(t *testing.T) {
	only := os.Getenv("PACE_CHAOS_SCENARIO")
	b := benchSet(t, 90, 6, 31)
	const p = 4

	base := DefaultConfig(p)
	base.Window, base.Psi = 6, 18
	base.BatchSize = 8
	base.WorkBufCap = 256
	base.MP = mp.DefaultSimConfig(p)

	baseline, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)

	ran := 0
	// The scenarios are grouped under the merge protocol they run: the
	// paper's per-pair verdicts, the engine's only one.
	t.Run("per-pair", func(t *testing.T) {
		for _, sc := range chaosScenarios {
			if only != "" && sc.name != only {
				continue
			}
			ran++
			t.Run(sc.name, func(t *testing.T) {
				cfg := base
				fault := sc.fault
				cfg.MP.Fault = &fault
				cfg.MP.Retry = sc.retry
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatalf("pipeline did not survive %s: %v", sc.name, err)
				}
				got := normalizeLabels(res.Labels)
				diff := 0
				for i := range got {
					if got[i] != want[i] {
						diff++
					}
				}
				if diff != 0 {
					t.Errorf("partition differs from failure-free run at %d of %d ESTs", diff, len(got))
				}
				if sc.fault.CrashRank > 0 && res.Stats.Recovery.RanksLost != 1 {
					t.Errorf("RanksLost = %d, want 1", res.Stats.Recovery.RanksLost)
				}
			})
		}
	})
	if ran == 0 {
		t.Fatalf("unknown PACE_CHAOS_SCENARIO %q", only)
	}
}
