package cluster

// Checkpoint/restart: the master periodically snapshots its union-find and
// pair counters; a killed run restarts from the snapshot by seeding
// InitialLabels, skipping pairs inside already-merged clusters instead of
// re-aligning them.

import (
	"path/filepath"
	"testing"

	"pace/internal/mp"
	"pace/internal/unionfind"
	"pace/internal/vfs"
)

func sampleCheckpoint() *Checkpoint {
	uf := unionfind.New(10)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Union(3, 4)
	return &Checkpoint{
		NumESTs: 10, Window: 6, Psi: 18, Seq: 7,
		PairsProcessed: 100, PairsAccepted: 40, PairsSkipped: 12, Merges: 3,
		UF: uf,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	got, err := decodeCheckpoint(ck.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumESTs != 10 || got.Window != 6 || got.Psi != 18 || got.Seq != 7 {
		t.Errorf("fingerprint: %+v", got)
	}
	if got.PairsProcessed != 100 || got.PairsAccepted != 40 ||
		got.PairsSkipped != 12 || got.Merges != 3 {
		t.Errorf("counters: %+v", got)
	}
	want := ck.Labels()
	gotLabels := got.Labels()
	for i := range want {
		if gotLabels[i] != want[i] {
			t.Fatalf("label %d: %d vs %d", i, gotLabels[i], want[i])
		}
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	good := sampleCheckpoint().encode()
	mutate := func(name string, f func([]byte) []byte) {
		b := append([]byte{}, good...)
		if _, err := decodeCheckpoint(f(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-5] })
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[8] = 99; return b })
	mutate("flipped body byte", func(b []byte) []byte { b[30] ^= 0xFF; return b })
	mutate("flipped CRC", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0) })
}

func TestCheckpointValidateFingerprint(t *testing.T) {
	ck := sampleCheckpoint()
	if err := ck.Validate(10, 6, 18); err != nil {
		t.Fatal(err)
	}
	if err := ck.Validate(11, 6, 18); err == nil {
		t.Error("wrong EST count accepted")
	}
	if err := ck.Validate(10, 8, 18); err == nil {
		t.Error("wrong window accepted")
	}
	if err := ck.Validate(10, 6, 20); err == nil {
		t.Error("wrong psi accepted")
	}
}

func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint()
	n, err := WriteCheckpointFS(vfs.OS{}, dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("wrote %d bytes", n)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, CheckpointFile+".tmp*")); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ck.Seq {
		t.Errorf("Seq = %d, want %d", got.Seq, ck.Seq)
	}
	// A second write replaces the first; the newer snapshot wins.
	ck.Seq = 8
	if _, err := WriteCheckpointFS(vfs.OS{}, dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 8 {
		t.Errorf("Seq = %d after overwrite, want 8", got.Seq)
	}
}

// A completed run leaves a final checkpoint; resuming from it must reproduce
// the same partition while skipping the already-done merge work.
func TestResumeFromFinalCheckpoint(t *testing.T) {
	b := benchSet(t, 80, 5, 23)
	dir := t.TempDir()

	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	cfg.Checkpoint = CheckpointConfig{Dir: dir, EveryReports: 2}
	baseline, err := Run(b.ESTs, cfg)
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
	if err := ck.Validate(len(b.ESTs), cfg.Window, cfg.Psi); err != nil {
		t.Fatal(err)
	}

	resumed := DefaultConfig(1)
	resumed.Window, resumed.Psi = 6, 18
	resumed.InitialLabels = ck.Labels()
	res, err := Run(b.ESTs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(baseline.Labels)
	got := normalizeLabels(res.Labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed partition differs at EST %d", i)
		}
	}
	// The final checkpoint holds the complete partition: the resumed run has
	// nothing left to merge, and the seed accounts for all baseline merges.
	st := res.Stats
	if st.Recovery.SeedMerges != baseline.Stats.Merges {
		t.Errorf("SeedMerges = %d, want %d", st.Recovery.SeedMerges, baseline.Stats.Merges)
	}
	if st.Merges != 0 {
		t.Errorf("resumed run merged %d more clusters", st.Merges)
	}
	if st.PairsProcessed >= baseline.Stats.PairsProcessed {
		t.Errorf("resume reprocessed pairs: %d vs baseline %d",
			st.PairsProcessed, baseline.Stats.PairsProcessed)
	}
}

// Kill the master mid-run, then resume from the surviving checkpoint: the
// resumed run completes and matches a failure-free run, processing fewer
// pairs than from scratch.
func TestResumeAfterMasterCrash(t *testing.T) {
	b := benchSet(t, 80, 5, 24)
	dir := t.TempDir()
	const p = 3

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

	// Crash the master on its 12th report receive; snapshots every report.
	crashed := base
	crashed.Checkpoint = CheckpointConfig{Dir: dir, EveryReports: 1}
	crashed.MP.Fault = &mp.FaultPlan{Seed: 5, CrashRank: 0, CrashAfter: 12, CrashTag: tagReport}
	if _, err := Run(b.ESTs, crashed); err == nil {
		t.Fatal("master crash must fail the run")
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("no usable checkpoint after crash: %v", err)
	}
	if err := ck.Validate(len(b.ESTs), base.Window, base.Psi); err != nil {
		t.Fatal(err)
	}
	if ck.PairsProcessed == 0 {
		t.Error("checkpoint captured no progress")
	}

	resumed := base
	resumed.InitialLabels = ck.Labels()
	res, err := Run(b.ESTs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeLabels(res.Labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed partition differs at EST %d", i)
		}
	}
	if ck.Merges > 0 && res.Stats.Recovery.SeedMerges == 0 {
		t.Error("resume did not seed from checkpoint labels")
	}
	if res.Stats.Merges != baseline.Stats.Merges-res.Stats.Recovery.SeedMerges {
		t.Errorf("merge accounting: resumed %d + seeded %d != baseline %d",
			res.Stats.Merges, res.Stats.Recovery.SeedMerges, baseline.Stats.Merges)
	}
}

// The sequential engine honors the checkpoint cadence too.
func TestSequentialCheckpointing(t *testing.T) {
	b := benchSet(t, 50, 4, 25)
	dir := t.TempDir()
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	cfg.Checkpoint = CheckpointConfig{Dir: dir, EveryReports: 1}
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recovery.Checkpoints < 2 {
		t.Errorf("Checkpoints = %d, want >= 2", res.Stats.Recovery.Checkpoints)
	}
	if res.Stats.Recovery.CheckpointBytes == 0 {
		t.Error("CheckpointBytes not recorded")
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The final (forced) snapshot holds the finished run's counters.
	if ck.Merges != res.Stats.Merges {
		t.Errorf("final checkpoint Merges = %d, run had %d", ck.Merges, res.Stats.Merges)
	}
}
