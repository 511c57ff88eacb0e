package cluster

// Slave-failure recovery: a slave killed mid-protocol must not change the
// final partition. The master reclaims the dead rank's grants, requeues its
// in-flight batches, and reassigns its bucket shards to survivors, who
// rebuild and regenerate the pair stream. Because the partition is the set
// of connected components of the accepted-pair graph — invariant to pair
// processing order and to duplicate processing — the recovered run must
// produce labels identical to a failure-free run.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pace/internal/mp"
	"pace/internal/simulate"
)

// recoveryBench is shared across the recovery tests (generation dominates
// their cost). Each of its six genes has a paralog 10 % diverged: pairs
// across a gene and its paralog are generated but never merge, so no replica
// ever joins them and every slave must ship and align its share of them.
// Without them a slave the scheduler starts late finds its whole shard
// already joined and may report only twice, so late crash schedules need
// not fire on the real transport.
func recoveryBench(t testing.TB) *simulate.Benchmark {
	t.Helper()
	cfg := benchConfig(90, 6, 21)
	cfg.ParalogFamilies, cfg.ParalogDivergence = 6, 0.1
	b, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func recoveryConfig(p int, mpCfg mp.Config) Config {
	cfg := DefaultConfig(p)
	cfg.Window, cfg.Psi = 6, 18
	// Small batches force many report round-trips per slave, so late crash
	// schedules (CrashAfter up to ~10) actually fire before the run ends.
	cfg.BatchSize = 4
	cfg.WorkBufCap = 256
	cfg.MP = mpCfg
	return cfg
}

func modeName(c mp.Config) string {
	if c.Mode == mp.ModeSim {
		return "sim"
	}
	return "real"
}

// TestSlaveCrashRecovers kills slave 2 on its N-th report send, for N across
// the protocol's lifetime (before the first report, mid-stream, and late),
// in both machine modes, and checks the partition and the recovery counters.
func TestSlaveCrashRecovers(t *testing.T) {
	b := recoveryBench(t)
	const p = 4

	baseline, err := Run(b.ESTs, recoveryConfig(p, mp.DefaultSimConfig(p)))
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)

	for _, after := range []int{1, 3, 8} {
		for _, mpCfg := range parallelModes(p) {
			t.Run(fmt.Sprintf("after%d_%s", after, modeName(mpCfg)), func(t *testing.T) {
				cfg := recoveryConfig(p, mpCfg)
				cfg.MP.Fault = &mp.FaultPlan{
					Seed:       1,
					CrashRank:  2,
					CrashAfter: after,
					CrashTag:   tagReport,
				}
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
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
				rec := res.Stats.Recovery
				if rec.RanksLost != 1 {
					t.Errorf("RanksLost = %d, want 1", rec.RanksLost)
				}
				if rec.GrantsReclaimed < 0 || rec.PairsRequeued < 0 {
					t.Errorf("negative recovery counters: %+v", rec)
				}
				// The dead rank must appear in PerRank as a lost row.
				lost := 0
				for _, rs := range res.Stats.PerRank {
					if rs.Role == "lost" {
						lost++
						if rs.Rank != 2 {
							t.Errorf("lost rank = %d, want 2", rs.Rank)
						}
					}
				}
				if lost != 1 {
					t.Errorf("%d lost PerRank rows, want 1", lost)
				}
			})
		}
	}
}

// A death among four slaves subdivides the lost shard three ways — the
// multi-survivor reassignment path, beyond the pairwise case above.
func TestSlaveCrashManySurvivors(t *testing.T) {
	b := recoveryBench(t)
	const p = 5

	baseline, err := Run(b.ESTs, recoveryConfig(p, mp.DefaultSimConfig(p)))
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)

	cfg := recoveryConfig(p, mp.DefaultSimConfig(p))
	cfg.MP.Fault = &mp.FaultPlan{Seed: 2, CrashRank: 3, CrashAfter: 1, CrashTag: tagReport}
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeLabels(res.Labels)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("partition differs from failure-free run at EST %d", i)
		}
	}
}

// TestLostFinalReportKeepsVerdictTotals: a slave that dies on its final
// report (tagPhase), after its protocol work is done, loses only its PerRank
// row. The processed and accepted totals are the master's count of the
// verdicts it received, so they still equal the failure-free run's on the
// deterministic simulator; on failure-free runs of both transports they
// equal the sums of the PerRank rows.
func TestLostFinalReportKeepsVerdictTotals(t *testing.T) {
	b := recoveryBench(t)
	const p = 4
	sums := func(st Stats) (proc, acc int64) {
		for _, rs := range st.PerRank {
			proc += rs.PairsProcessed
			acc += rs.PairsAccepted
		}
		return proc, acc
	}
	for _, mpCfg := range parallelModes(p) {
		res, err := Run(b.ESTs, recoveryConfig(p, mpCfg))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if proc, acc := sums(st); proc != st.PairsProcessed || acc != st.PairsAccepted {
			t.Errorf("%s: PerRank rows sum to processed/accepted %d/%d, totals %d/%d",
				modeName(mpCfg), proc, acc, st.PairsProcessed, st.PairsAccepted)
		}
	}

	sim := mp.DefaultSimConfig(p)
	sim.MeasureCompute = false
	base, err := Run(b.ESTs, recoveryConfig(p, sim))
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoveryConfig(p, sim)
	cfg.MP.Fault = &mp.FaultPlan{Seed: 1, CrashRank: 2, CrashAfter: 1, CrashTag: tagPhase}
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if role := res.Stats.PerRank[2].Role; role != "lost" {
		t.Fatalf("rank 2's row has role %q, want lost: the crash did not fire", role)
	}
	if !slices.Equal(normalizeLabels(res.Labels), normalizeLabels(base.Labels)) {
		t.Error("partition differs from the failure-free run")
	}
	got, want := res.Stats, base.Stats
	if got.PairsProcessed != want.PairsProcessed || got.PairsAccepted != want.PairsAccepted {
		t.Errorf("processed/accepted %d/%d with rank 2's final report lost, failure-free %d/%d",
			got.PairsProcessed, got.PairsAccepted, want.PairsProcessed, want.PairsAccepted)
	}
}

// When the only slave dies there is no survivor to reassign to; the run must
// fail with a clear error rather than hang.
func TestAllSlavesDeadFails(t *testing.T) {
	b := benchSet(t, 40, 3, 22)
	cfg := recoveryConfig(2, mp.DefaultSimConfig(2))
	cfg.MP.Fault = &mp.FaultPlan{Seed: 4, CrashRank: 1, CrashAfter: 2, CrashTag: tagReport}
	if _, err := Run(b.ESTs, cfg); err == nil {
		t.Fatal("run with zero surviving slaves must fail")
	}
}

// TestSlaveTimeoutFiresInVirtualTime: on the deterministic simulator, every
// send delayed well past SlaveTimeout makes the master's report receive
// expire in virtual time, and the run fails as wedged instead of hanging.
// The same delayed run without the timeout completes with the failure-free
// partition.
func TestSlaveTimeoutFiresInVirtualTime(t *testing.T) {
	b := recoveryBench(t)
	const p = 4
	sim := mp.DefaultSimConfig(p)
	sim.MeasureCompute = false

	baseline, err := Run(b.ESTs, recoveryConfig(p, sim))
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)

	delayed := func(timeout time.Duration) Config {
		cfg := recoveryConfig(p, sim)
		cfg.MP.Fault = &mp.FaultPlan{Seed: 1, DelayProb: 1, Delay: time.Second}
		cfg.SlaveTimeout = timeout
		return cfg
	}

	_, err = Run(b.ESTs, delayed(100*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "a slave is wedged") {
		t.Fatalf("want the wedged-slave error, got %v", err)
	}

	res, err := Run(b.ESTs, delayed(0))
	if err != nil {
		t.Fatalf("delayed run without a timeout: %v", err)
	}
	if got := normalizeLabels(res.Labels); !slices.Equal(got, want) {
		t.Error("delayed run's partition differs from the failure-free run")
	}
}
