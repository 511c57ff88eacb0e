package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"pace/internal/mp"
	"pace/internal/telemetry"
)

// TestParallelTelemetry runs the simulated machine with every sink attached
// and checks the per-rank table, the registry, and the trace output.
func TestParallelTelemetry(t *testing.T) {
	b := benchSet(t, 60, 6, 3)
	var buf bytes.Buffer
	cfg := DefaultConfig(4)
	cfg.MP = mp.DefaultSimConfig(4)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Trace = telemetry.NewTraceWriter(&buf)

	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	if len(st.PerRank) != 4 {
		t.Fatalf("PerRank has %d rows, want 4", len(st.PerRank))
	}
	var genSum, procSum, accSum int64
	for i, rs := range st.PerRank {
		if rs.Rank != i {
			t.Errorf("PerRank[%d].Rank = %d (want sorted by rank)", i, rs.Rank)
		}
		wantRole := "slave"
		if i == 0 {
			wantRole = "master"
		}
		if rs.Role != wantRole {
			t.Errorf("rank %d role = %q, want %q", i, rs.Role, wantRole)
		}
		if rs.Total <= 0 {
			t.Errorf("rank %d Total = %v, want > 0", i, rs.Total)
		}
		if rs.MsgsSent == 0 || rs.MsgsRecv == 0 {
			t.Errorf("rank %d comm counters empty: %+v", i, rs)
		}
		genSum += rs.PairsGenerated
		procSum += rs.PairsProcessed
		accSum += rs.PairsAccepted
	}
	if genSum != st.PairsGenerated || procSum != st.PairsProcessed || accSum != st.PairsAccepted {
		t.Errorf("per-rank sums gen=%d proc=%d acc=%d != totals gen=%d proc=%d acc=%d",
			genSum, procSum, accSum, st.PairsGenerated, st.PairsProcessed, st.PairsAccepted)
	}
	if st.MasterIdle <= 0 {
		t.Errorf("MasterIdle = %v, want > 0", st.MasterIdle)
	}

	snap := cfg.Metrics.Snapshot()
	if got := snap[mPairsGenerated]; int64(got) != st.PairsGenerated {
		t.Errorf("registry %s = %v, want %d", mPairsGenerated, got, st.PairsGenerated)
	}
	if got := snap[mWorkbufHW]; int(got) != st.WorkBufHighWater {
		t.Errorf("registry %s = %v, want %d", mWorkbufHW, got, st.WorkBufHighWater)
	}
	if snap[mBucketSize+"_count"] <= 0 {
		t.Error("bucket-size histogram is empty")
	}
	if snap[mLoadSkew] < 1 {
		t.Errorf("load skew = %v, want >= 1", snap[mLoadSkew])
	}
	if got := snap[mMasterIdle]; int64(got) != int64(st.MasterIdle) {
		t.Errorf("registry %s = %v, want MasterIdle %d", mMasterIdle, got, int64(st.MasterIdle))
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	tids := map[float64]bool{}
	for _, e := range events {
		if e["ph"] == "X" {
			phases[e["name"].(string)] = true
		}
		tids[e["tid"].(float64)] = true
	}
	for _, want := range []string{"partition", "construct", "sort", "align"} {
		if !phases[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
	if len(tids) != 4 {
		t.Errorf("trace covers %d timelines, want 4", len(tids))
	}
}

// TestSequentialTelemetry checks the sequential engine's synthetic rank row
// and probe wiring.
func TestSequentialTelemetry(t *testing.T) {
	b := benchSet(t, 40, 4, 5)
	var buf bytes.Buffer
	cfg := DefaultConfig(1)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Trace = telemetry.NewTraceWriter(&buf)

	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if len(st.PerRank) != 1 || st.PerRank[0].Role != "seq" {
		t.Fatalf("sequential PerRank = %+v, want one seq row", st.PerRank)
	}
	if st.PerRank[0].PairsProcessed != st.PairsProcessed {
		t.Errorf("seq row processed = %d, want %d", st.PerRank[0].PairsProcessed, st.PairsProcessed)
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap[mPairsProcessed]; int64(got) != st.PairsProcessed {
		t.Errorf("registry %s = %v, want %d", mPairsProcessed, got, st.PairsProcessed)
	}
	// One worker holds every bucket, so max load / mean load is exactly 1.
	if got := snap[mLoadSkew]; got != 1 {
		t.Errorf("registry %s = %v, want 1", mLoadSkew, got)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("sequential trace is empty")
	}
}

// TestPairsGeneratedCounter: the live pace_pairs_generated_total, which the
// sequential engine adds to per pulled batch and the master per collected
// slave row, ends every run equal to Stats.PairsGenerated — on the
// sequential engine at one and at eight workers, on the real transport, and
// on a simulated run whose slave dies, so that a survivor rebuilds and
// regenerates its shard.
func TestPairsGeneratedCounter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	b := recoveryBench(t)
	check := func(what string, cfg Config) *Result {
		t.Helper()
		cfg.Metrics = telemetry.NewRegistry()
		res, err := Run(b.ESTs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := cfg.Metrics.Snapshot()[mPairsGenerated]; int64(got) != res.Stats.PairsGenerated {
			t.Errorf("%s: %s = %v, Stats.PairsGenerated = %d", what, mPairsGenerated, got, res.Stats.PairsGenerated)
		}
		return res
	}
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		check(fmt.Sprintf("sequential, %d workers", workers), recoveryConfig(1, mp.Config{Procs: 1}))
	}
	check("real transport, p=3", recoveryConfig(3, mp.Config{Procs: 3, Mode: mp.ModeReal}))
	cfg := recoveryConfig(4, mp.DefaultSimConfig(4))
	cfg.MP.Fault = &mp.FaultPlan{Seed: 1, CrashRank: 2, CrashAfter: 3, CrashTag: tagReport}
	if res := check("simulated, slave 2 lost", cfg); res.Stats.Recovery.RanksLost != 1 {
		t.Errorf("simulated, slave 2 lost: %d ranks lost, want 1", res.Stats.Recovery.RanksLost)
	}
}
