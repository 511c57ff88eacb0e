package pace

// Public-API coverage of the fault-tolerance surface: chaos injection,
// slave-failure recovery, and checkpoint/restart through Options.

import (
	"math/bits"
	"testing"
	"time"
)

// TestClusterSurvivesSlaveCrash runs on five genes with a paralog each, 10 %
// diverged: paralog pairs are generated but never merge, so no slave's
// replica joins them and every slave keeps reporting late into the run. Its
// crash plan then fires whatever the schedule; without them a slave can
// finish before its third report.
func TestClusterSurvivesSlaveCrash(t *testing.T) {
	b, err := Simulate(SimOptions{
		NumESTs: 80, NumGenes: 5, Seed: 41,
		MeanLength: 400, SDLength: 40, MinLength: 200, TranscriptLen: [2]int{450, 540},
		ParalogFamilies: 5, ParalogDivergence: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	opt := DefaultOptions()
	opt.Window, opt.MinMatch = 6, 18
	opt.Processors = p
	opt.Simulated = true
	opt.BatchSize = 8

	baseline, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Kill slave 2 on its 3rd report; tag 1 is the slave-report tag. On the
	// failure-free run it sent more: all its sends but the prologue's
	// allreduce steps (one reduce, at most ⌈log₂ p⌉ broadcast) were reports.
	chaos := opt
	chaos.Fault = &FaultPlan{Seed: 1, CrashRank: 2, CrashAfter: 3, CrashTag: 1}
	if n := baseline.Stats.PerRank[2].MsgsSent - int64(1+bits.Len(uint(p-1))); n <= 3 {
		t.Fatalf("slave 2 sent at least %d reports on the failure-free run; a crash after 3 need not fire", n)
	}
	cl, err := Cluster(b.ESTs, chaos)
	if err != nil {
		t.Fatalf("run did not survive the crash: %v", err)
	}
	if cl.Stats.Recovery.RanksLost != 1 {
		t.Errorf("RanksLost = %d, want 1", cl.Stats.Recovery.RanksLost)
	}
	if cl.NumClusters != baseline.NumClusters {
		t.Errorf("clusters = %d, failure-free run found %d", cl.NumClusters, baseline.NumClusters)
	}
	for i := range cl.Labels {
		for j := range cl.Labels {
			if (cl.Labels[i] == cl.Labels[j]) != (baseline.Labels[i] == baseline.Labels[j]) {
				t.Fatalf("partition differs from failure-free run at ESTs %d,%d", i, j)
			}
		}
	}
}

func TestClusterCheckpointResume(t *testing.T) {
	b := testBenchmark(t, 60, 4, 42)
	dir := t.TempDir()

	opt := DefaultOptions()
	opt.Window, opt.MinMatch = 6, 18
	opt.CheckpointDir = dir
	opt.CheckpointInterval = time.Nanosecond
	baseline, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Stats.Recovery.Checkpoints == 0 {
		t.Fatal("no checkpoints written")
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Validate(len(b.ESTs), opt.Window, opt.MinMatch); err != nil {
		t.Fatal(err)
	}

	resumed := DefaultOptions()
	resumed.Window, resumed.MinMatch = 6, 18
	resumed.InitialLabels = ResumeLabels(ck)
	cl, err := Cluster(b.ESTs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters != baseline.NumClusters {
		t.Errorf("resumed clusters = %d, baseline %d", cl.NumClusters, baseline.NumClusters)
	}
	// The final checkpoint already holds the whole partition: nothing left
	// to merge, and the seeded merges account for all baseline merges.
	if cl.Stats.Merges != 0 {
		t.Errorf("resumed run merged %d more clusters", cl.Stats.Merges)
	}
	if cl.Stats.Recovery.SeedMerges != baseline.Stats.Merges {
		t.Errorf("SeedMerges = %d, baseline merged %d",
			cl.Stats.Recovery.SeedMerges, baseline.Stats.Merges)
	}
	if cl.Stats.PairsProcessed >= baseline.Stats.PairsProcessed {
		t.Errorf("resume reprocessed pairs: %d vs %d",
			cl.Stats.PairsProcessed, baseline.Stats.PairsProcessed)
	}
}
