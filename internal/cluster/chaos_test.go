package cluster

// Chaos matrix: run the full sim-mode pipeline under injected faults and
// assert cluster-equivalence with a failure-free run. CI runs one scenario
// per job via PACE_CHAOS_SCENARIO; with the variable unset every scenario
// runs (the local default).
//
// The scenarios cover the two fault classes the transport injects: a sticky
// rank crash and a delayed send. The master–slave protocol assumes reliable
// delivery (as MPI does), so no scenario loses or duplicates a message.

import (
	"math/bits"
	"os"
	"testing"
	"time"

	"pace/internal/mp"
)

type chaosScenario struct {
	name  string
	fault mp.FaultPlan
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
}

// TestChaos runs on the recovery tests' fixture: its paralog pairs never
// merge, so every slave keeps reporting until late in the run and each crash
// plan fires.
func TestChaos(t *testing.T) {
	only := os.Getenv("PACE_CHAOS_SCENARIO")
	b := recoveryBench(t)
	const p = 4
	base := recoveryConfig(p, mp.DefaultSimConfig(p))

	baseline, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)
	for _, sc := range chaosScenarios {
		if f := sc.fault; f.CrashRank > 0 {
			if n := reportsAtLeast(baseline.Stats.PerRank[f.CrashRank], p); n <= int64(f.CrashAfter) {
				t.Fatalf("%s: slave %d sent at least %d reports on the failure-free run; a crash after %d need not fire", sc.name, f.CrashRank, n, f.CrashAfter)
			}
		}
	}

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

// reportsAtLeast bounds from below the reports slave row rs sent on a
// failure-free run of p ranks: its sends less the most a slave sends outside
// its report loop — one reduce step and at most ⌈log₂ p⌉ broadcast steps of
// the prologue's allreduce.
func reportsAtLeast(rs RankStats, p int) int64 {
	return rs.MsgsSent - int64(1+bits.Len(uint(p-1)))
}
