package cluster

import (
	"slices"
	"strings"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// TestRunSetIncrementalEquivalence drives the engine-level incremental
// contract directly: a cached sequential run over a prefix, then a
// fresh-only run after appending a tail generation, must reproduce the
// from-scratch partition and split the pair work exactly — every promising
// pair is generated once, in the run that introduces its younger string.
func TestRunSetIncrementalEquivalence(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	full, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := len(b.ESTs) - 2
	set, err := seq.NewSetS(b.ESTs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBucketCache()

	c1 := cfg
	c1.Cache = cache
	r1, err := RunSet(set, c1)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Strings() != 2*cut {
		t.Fatalf("cache scanned %d strings, want %d", cache.Strings(), 2*cut)
	}

	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
	c2.FreshGen = gen
	c2.InitialLabels = r1.Labels
	r2, err := RunSet(set, c2)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := normalizeLabels(r2.Labels), normalizeLabels(full.Labels); len(got) != len(want) {
		t.Fatalf("label count %d != %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("incremental partition differs from from-scratch at EST %d", i)
			}
		}
	}
	if sum := r1.Stats.PairsGenerated + r2.Stats.PairsGenerated; sum != full.Stats.PairsGenerated {
		t.Errorf("prefix %d + fresh %d pairs != from-scratch %d",
			r1.Stats.PairsGenerated, r2.Stats.PairsGenerated, full.Stats.PairsGenerated)
	}
	inc := r2.Stats.Incremental
	if inc.FreshPairs != r2.Stats.PairsGenerated {
		t.Errorf("FreshPairs %d != PairsGenerated %d", inc.FreshPairs, r2.Stats.PairsGenerated)
	}
	// The tail batch must touch some buckets and leave others alone, and the
	// two counts must account for every non-empty bucket of the table.
	if inc.BucketsRebuilt <= 0 || inc.BucketsReused <= 0 {
		t.Errorf("BucketsRebuilt %d / BucketsReused %d, want both > 0",
			inc.BucketsRebuilt, inc.BucketsReused)
	}
	if sum := inc.BucketsRebuilt + inc.BucketsReused; sum != int64(cache.Buckets()) {
		t.Errorf("BucketsRebuilt %d + BucketsReused %d != %d cached buckets",
			inc.BucketsRebuilt, inc.BucketsReused, cache.Buckets())
	}
}

// TestRunSetGuards exercises the RunSet/Validate rejections around the
// incremental knobs.
func TestRunSetGuards(t *testing.T) {
	b := benchSet(t, 10, 2, 5)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	bad := cfg
	bad.FreshGen = seq.Gen(set.NumGenerations())
	if _, err := RunSet(set, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("FreshGen == NumGenerations: got %v, want out-of-range error", err)
	}

	bad = cfg
	bad.FreshGen = -1
	if err := bad.Validate(); err == nil {
		t.Error("FreshGen < 0: want Validate error")
	}

	cache := NewBucketCache()
	if err := cache.Warm(set, cfg.Window); err != nil {
		t.Fatal(err)
	}
	bad = cfg
	bad.Cache = cache
	if _, err := RunSet(set, bad); err == nil || !strings.Contains(err.Error(), "non-empty cache") {
		t.Errorf("full run over warm cache: got %v, want rejection", err)
	}

	bad = DefaultConfig(4)
	bad.Window, bad.Psi = 6, 18
	bad.Cache = cache
	if err := bad.Validate(); err == nil {
		t.Error("Cache with Procs > 1: want Validate error")
	}
}

// TestBucketCacheConsistency covers the cache's own validation: the window
// is fixed at first use, and the cache must never be ahead of the run's set.
func TestBucketCacheConsistency(t *testing.T) {
	b := benchSet(t, 8, 2, 9)
	big, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	small, err := seq.NewSetS(b.ESTs[:4])
	if err != nil {
		t.Fatal(err)
	}

	cache := NewBucketCache()
	if err := cache.Warm(big, 6); err != nil {
		t.Fatal(err)
	}
	if err := cache.Warm(big, 8); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("window mismatch: got %v, want error", err)
	}
	if err := cache.Warm(small, 6); err == nil {
		t.Error("cache ahead of set: want error")
	}
	if cache.Buckets() == 0 {
		t.Error("warm cache reports zero buckets")
	}
}

// TestBucketCacheTruncateRollsBackAbsorb proves cache truncation is the
// exact inverse of absorbing a batch: every bucket shrinks back to the
// prefix run's state, and a re-run of the batch after rollback rebuilds the
// same buckets and reproduces the from-scratch partition and pair counts —
// the retried-Add-equals-first-attempt contract at the engine level.
func TestBucketCacheTruncateRollsBackAbsorb(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	full, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := len(b.ESTs) - 3
	set, err := seq.NewSetS(b.ESTs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBucketCache()
	c1 := cfg
	c1.Cache = cache
	r1, err := RunSet(set, c1)
	if err != nil {
		t.Fatal(err)
	}
	bucketsBefore := cache.Buckets()
	lenBefore := cache.table.Histogram()

	// Absorb the tail batch (as a failed run would have), then roll back.
	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
	c2.FreshGen = gen
	c2.InitialLabels = r1.Labels
	r2, err := RunSet(set, c2)
	if err != nil {
		t.Fatal(err)
	}
	cache.Truncate(seq.Forward(seq.ESTID(cut)))
	if err := set.Truncate(cut); err != nil {
		t.Fatal(err)
	}

	if cache.Strings() != 2*cut {
		t.Fatalf("truncated cache scanned %d strings, want %d", cache.Strings(), 2*cut)
	}
	if cache.Buckets() != bucketsBefore {
		t.Errorf("truncated cache holds %d buckets, want %d", cache.Buckets(), bucketsBefore)
	}
	for bkt, n := range cache.table.Histogram() {
		if n != lenBefore[bkt] {
			t.Errorf("bucket %d has %d refs after rollback, want %d", bkt, n, lenBefore[bkt])
		}
	}

	// The retried batch must behave exactly like a first attempt.
	gen2, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen {
		t.Fatalf("retried Append got generation %d, want %d", gen2, gen)
	}
	c3 := cfg
	c3.Cache = cache
	c3.FreshGen = gen2
	c3.InitialLabels = r1.Labels
	r3, err := RunSet(set, c3)
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalizeLabels(r3.Labels), normalizeLabels(full.Labels)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("retried run's partition differs from from-scratch at EST %d", i)
		}
	}
	if sum := r1.Stats.PairsGenerated + r3.Stats.PairsGenerated; sum != full.Stats.PairsGenerated {
		t.Errorf("prefix %d + retried %d pairs != from-scratch %d",
			r1.Stats.PairsGenerated, r3.Stats.PairsGenerated, full.Stats.PairsGenerated)
	}
	if r3.Stats.Incremental != r2.Stats.Incremental {
		t.Errorf("retried run's incremental counters %+v differ from the first attempt's %+v",
			r3.Stats.Incremental, r2.Stats.Incremental)
	}
}

// sameCacheTable fails unless the two caches hold the same suffixes in the
// same buckets in the same order.
func sameCacheTable(t *testing.T, what string, got, want *BucketCache) {
	t.Helper()
	if got.Strings() != want.Strings() || got.Buckets() != want.Buckets() {
		t.Fatalf("%s: %d strings in %d buckets, want %d in %d", what, got.Strings(), got.Buckets(), want.Strings(), want.Buckets())
	}
	if want.table == nil {
		return
	}
	if got.table.Len() != want.table.Len() {
		t.Fatalf("%s: %d suffixes, want %d", what, got.table.Len(), want.table.Len())
	}
	for _, b := range want.table.NonEmpty() {
		g, w := got.table.Refs(int(b)), want.table.Refs(int(b))
		if len(g) != len(w) {
			t.Fatalf("%s: bucket %d has %d refs, want %d", what, b, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: bucket %d ref %d is %+v, want %+v", what, b, i, g[i], w[i])
			}
		}
	}
}

// TestCacheTruncateIsInverseOfAbsorb checks the rollback at the table level:
// absorb A, absorb B, truncate to A leaves exactly the table of a cache that
// only ever saw A — for an empty A, for an A so short that the cut empties
// buckets, and for a B of one EST.
func TestCacheTruncateIsInverseOfAbsorb(t *testing.T) {
	b := benchSet(t, 40, 4, 17)
	const w = 5
	for _, cutESTs := range []int{0, 1, len(b.ESTs) / 2, len(b.ESTs) - 1} {
		set, err := seq.NewSetS(b.ESTs)
		if err != nil {
			t.Fatal(err)
		}
		cut := seq.Forward(seq.ESTID(cutESTs))
		n2 := seq.StringID(set.NumStrings())

		onlyA := NewBucketCache()
		if _, err := onlyA.absorb(set, w, cut); err != nil {
			t.Fatal(err)
		}
		cache := NewBucketCache()
		var fresh int
		for _, hi := range []seq.StringID{cut, (cut + n2) / 2, n2} {
			touched, err := cache.absorb(set, w, hi)
			if err != nil {
				t.Fatal(err)
			}
			fresh = len(touched)
		}
		if fresh == 0 || cache.table.Len() <= onlyA.table.Len() {
			t.Fatalf("cut %d: the batches after the cut added nothing (%d suffixes vs %d)", cutESTs, cache.table.Len(), onlyA.table.Len())
		}
		cache.Truncate(cut)
		sameCacheTable(t, "truncated", cache, onlyA)

		// The rolled-back cache absorbs the batch again as if for the first time.
		again, err := cache.absorb(set, w, n2)
		if err != nil {
			t.Fatal(err)
		}
		whole := NewBucketCache()
		if err := whole.Warm(set, w); err != nil {
			t.Fatal(err)
		}
		sameCacheTable(t, "re-absorbed", cache, whole)
		if cutESTs == 0 && len(again) != whole.Buckets() {
			t.Errorf("re-absorbing everything touched %d of %d buckets", len(again), whole.Buckets())
		}
	}
}

// TestCheckpointFromLabels round-trips a finished partition through the
// session checkpoint constructor.
func TestCheckpointFromLabels(t *testing.T) {
	labels := []int32{0, 0, 1, 2, 1}
	ck, err := CheckpointFromLabels(len(labels), 6, 18, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumESTs != len(labels) || ck.Window != 6 || ck.Psi != 18 {
		t.Errorf("checkpoint header = {%d %d %d}, want {5 6 18}", ck.NumESTs, ck.Window, ck.Psi)
	}
	// 5 ESTs in 3 clusters: seeding needs exactly 2 unions.
	if ck.Merges != 2 {
		t.Errorf("Merges = %d, want 2", ck.Merges)
	}
	got := normalizeLabels(ck.Labels())
	want := normalizeLabels(labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored partition differs at %d: %v vs %v", i, got, want)
		}
	}

	if _, err := CheckpointFromLabels(4, 6, 18, labels); err == nil {
		t.Error("label/EST count mismatch: want error")
	}
}

// TestSequentialWorkerCounts holds the sequential engine's fan-out and pair
// run-ahead to their contract: at every width, a one-shot run and a cached
// session's batch runs produce the partition and every counter the one-worker
// engine does, by default, without the same-cluster skip, and with a
// run-ahead buffer at its floor that the producer fills, and no worker
// outlives its run.
func TestSequentialWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	noSkip := cfg
	noSkip.SkipSameCluster = false
	floorESTs, floor := floorInput(t)
	for _, leg := range []struct {
		name string
		ests []seq.Sequence
		cfg  Config
		// minPairs is how many pairs the one-shot run must exceed.
		minPairs int64
	}{
		{"default", b.ESTs, cfg, 0},
		// Every pair is aligned: a third of the input keeps the leg quick.
		{"SkipSameCluster=false", b.ESTs[:20], noSkip, 0},
		{"run-ahead floor", floorESTs, floor, int64(runAheadFloor * floor.BatchSize)},
	} {
		t.Run(leg.name, func(t *testing.T) { checkWorkerCounts(t, leg.ests, leg.cfg, leg.minPairs) })
	}
}

func checkWorkerCounts(t *testing.T, ests []seq.Sequence, cfg Config, minPairs int64) {
	cut := len(ests) * 2 / 3

	// run returns the one-shot result, then the session's two batch results.
	run := func(workers int) []*Result {
		full, err := seq.NewSetS(ests)
		if err != nil {
			t.Fatal(err)
		}
		one, err := runSequential(full, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		set, err := seq.NewSetS(ests[:cut])
		if err != nil {
			t.Fatal(err)
		}
		c1 := cfg
		c1.Cache = NewBucketCache()
		r1, err := runSequential(set, c1, workers)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := set.Append(ests[cut:])
		if err != nil {
			t.Fatal(err)
		}
		c2 := c1
		c2.FreshGen, c2.InitialLabels = gen, r1.Labels
		r2, err := runSequential(set, c2, workers)
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{one, r1, r2}
	}
	counters := func(st Stats) [6]int64 {
		return [6]int64{st.PairsGenerated, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, st.Recovery.SeedMerges}
	}
	want := run(1)
	if want[2].Stats.Incremental.BucketsRebuilt == 0 || want[0].Stats.PairsGenerated <= minPairs {
		t.Fatalf("workload exercises nothing: %+v", want[2].Stats)
	}
	for _, workers := range []int{2, 3, 8} {
		for i, got := range run(workers) {
			w := want[i]
			if !slices.Equal(got.Labels, w.Labels) || got.NumClusters != w.NumClusters {
				t.Errorf("workers=%d run %d: partition differs from one worker's", workers, i)
			}
			if counters(got.Stats) != counters(w.Stats) || got.Stats.Incremental != w.Stats.Incremental {
				t.Errorf("workers=%d run %d: counters %v %+v, one worker %v %+v", workers, i,
					counters(got.Stats), got.Stats.Incremental, counters(w.Stats), w.Stats.Incremental)
			}
		}
	}
}
