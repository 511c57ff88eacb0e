package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pace/internal/seq"
	"pace/internal/suffix"
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
	if int(cache.scanned) != 2*cut {
		t.Fatalf("cache scanned %d strings, want %d", int(cache.scanned), 2*cut)
	}

	if _, err := set.Append(b.ESTs[cut:]); err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
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
	if sum := inc.BucketsRebuilt + inc.BucketsReused; sum != int64(len(cache.table.NonEmpty())) {
		t.Errorf("BucketsRebuilt %d + BucketsReused %d != %d cached buckets",
			inc.BucketsRebuilt, inc.BucketsReused, len(cache.table.NonEmpty()))
	}
}

// TestRunSetFreshWithoutCache: a fresh-only run with no Cache collects every
// string into a run-local table and orders every non-empty bucket, and the
// generator's fresh threshold alone keeps old×old pairs out. Its labels,
// pair counters, fresh pairs and suppressed stale pairs must equal the
// cached run's, which orders only the buckets the batch touches. The two
// fresh runs are pinned to one worker, where the processed, accepted and
// skipped counts do not depend on scheduling.
func TestRunSetFreshWithoutCache(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

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
	if _, err := set.Append(b.ESTs[cut:]); err != nil {
		t.Fatal(err)
	}

	fresh := cfg
	fresh.InitialLabels = r1.Labels
	cached := fresh
	cached.Cache = cache
	want, err := runSequential(set, cached, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSequential(set, fresh, 1)
	if err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(got.Labels, want.Labels) {
		t.Error("labels differ from the cached run's")
	}
	gs, ws := got.Stats, want.Stats
	if gs.PairsGenerated != ws.PairsGenerated || gs.PairsProcessed != ws.PairsProcessed ||
		gs.PairsAccepted != ws.PairsAccepted || gs.PairsSkipped != ws.PairsSkipped || gs.Merges != ws.Merges {
		t.Errorf("counters generated/processed/accepted/skipped/merges %d/%d/%d/%d/%d, cached run %d/%d/%d/%d/%d",
			gs.PairsGenerated, gs.PairsProcessed, gs.PairsAccepted, gs.PairsSkipped, gs.Merges,
			ws.PairsGenerated, ws.PairsProcessed, ws.PairsAccepted, ws.PairsSkipped, ws.Merges)
	}
	gi, wi := gs.Incremental, ws.Incremental
	if gi.BucketsReused != 0 {
		t.Errorf("cache-less run reused %d buckets, want 0", gi.BucketsReused)
	}
	if gi.FreshPairs != wi.FreshPairs || gi.StaleSuppressed != wi.StaleSuppressed {
		t.Errorf("fresh/stale pairs %d/%d, cached run %d/%d",
			gi.FreshPairs, gi.StaleSuppressed, wi.FreshPairs, wi.StaleSuppressed)
	}
	if ws.Incremental.BucketsRebuilt <= 0 || ws.Incremental.BucketsReused <= 0 {
		t.Errorf("cached run rebuilt %d and reused %d buckets, want both > 0",
			ws.Incremental.BucketsRebuilt, ws.Incremental.BucketsReused)
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

	cache := NewBucketCache()
	if err := cache.Warm(set, cfg.Window); err != nil {
		t.Fatal(err)
	}
	bad := cfg
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
	if len(cache.table.NonEmpty()) == 0 {
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
	bucketsBefore := len(cache.table.NonEmpty())
	lenBefore := cache.table.Histogram()

	// Absorb the tail batch (as a failed run would have), then roll back.
	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
	c2.InitialLabels = r1.Labels
	r2, err := RunSet(set, c2)
	if err != nil {
		t.Fatal(err)
	}
	cache.Truncate(seq.Forward(seq.ESTID(cut)))
	if err := set.Truncate(cut); err != nil {
		t.Fatal(err)
	}

	if int(cache.scanned) != 2*cut {
		t.Fatalf("truncated cache scanned %d strings, want %d", int(cache.scanned), 2*cut)
	}
	if len(cache.table.NonEmpty()) != bucketsBefore {
		t.Errorf("truncated cache holds %d buckets, want %d", len(cache.table.NonEmpty()), bucketsBefore)
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
	if int(got.scanned) != int(want.scanned) || len(got.table.NonEmpty()) != len(want.table.NonEmpty()) {
		t.Fatalf("%s: %d strings in %d buckets, want %d in %d", what, int(got.scanned), len(got.table.NonEmpty()), int(want.scanned), len(want.table.NonEmpty()))
	}
	if want.table == nil {
		return
	}
	if numSuffixes(got.table) != numSuffixes(want.table) {
		t.Fatalf("%s: %d suffixes, want %d", what, numSuffixes(got.table), numSuffixes(want.table))
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
// buckets, and for a B of one EST — whether or not each absorb's buckets
// were ordered, as a run's construction phase orders them, before the cut.
func TestCacheTruncateIsInverseOfAbsorb(t *testing.T) {
	b := benchSet(t, 40, 4, 17)
	const w = 5
	for _, ordered := range []bool{false, true} {
		for _, cutESTs := range []int{0, 1, len(b.ESTs) / 2, len(b.ESTs) - 1} {
			set, err := seq.NewSetS(b.ESTs)
			if err != nil {
				t.Fatal(err)
			}
			cut := seq.Forward(seq.ESTID(cutESTs))
			n2 := seq.StringID(set.NumStrings())
			// absorb is a run's partition phase and, if ordered, its
			// construction phase.
			absorb := func(c *BucketCache, hi seq.StringID) []int32 {
				t.Helper()
				touched, err := c.absorb(set, w, hi)
				if err != nil {
					t.Fatal(err)
				}
				if ordered {
					if _, err := suffix.BuildBuckets(set, c.table, touched, 2); err != nil {
						t.Fatal(err)
					}
				}
				return touched
			}

			onlyA := NewBucketCache()
			absorb(onlyA, cut)
			cache := NewBucketCache()
			var fresh int
			for _, hi := range []seq.StringID{cut, (cut + n2) / 2, n2} {
				fresh = len(absorb(cache, hi))
			}
			if fresh == 0 || numSuffixes(cache.table) <= numSuffixes(onlyA.table) {
				t.Fatalf("cut %d: the batches after the cut added nothing (%d suffixes vs %d)", cutESTs, numSuffixes(cache.table), numSuffixes(onlyA.table))
			}
			cache.Truncate(cut)
			sameCacheTable(t, fmt.Sprintf("ordered=%v truncated", ordered), cache, onlyA)

			// The rolled-back cache absorbs the batch again as if for the
			// first time, and orders into the table Warm makes.
			again := absorb(cache, n2)
			if _, err := suffix.BuildBuckets(set, cache.table, cache.table.NonEmpty(), 1); err != nil {
				t.Fatal(err)
			}
			whole := NewBucketCache()
			if err := whole.Warm(set, w); err != nil {
				t.Fatal(err)
			}
			sameCacheTable(t, fmt.Sprintf("ordered=%v re-absorbed", ordered), cache, whole)
			if cutESTs == 0 && len(again) != len(whole.table.NonEmpty()) {
				t.Errorf("re-absorbing everything touched %d of %d buckets", len(again), len(whole.table.NonEmpty()))
			}
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

// TestSequentialWorkerCounts holds the sequential engine's workers to their
// contract: at every width, a one-shot run and a cached session's batch runs
// produce the one-worker partition and every counter that does not depend on
// which worker reaches a pair first — generated pairs, merges, seed merges
// and the incremental tallies — by default, without the same-cluster skip,
// and on one transcript's worth of near-identical reads, where every worker
// merges into one cluster. Every pair is either aligned or skipped, and no
// worker outlives its run.
func TestSequentialWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	noSkip := cfg
	noSkip.SkipSameCluster = false
	for _, leg := range []struct {
		name string
		ests []seq.Sequence
		cfg  Config
	}{
		{"default", b.ESTs, cfg},
		// Every pair is aligned: a third of the input keeps the leg quick.
		{"SkipSameCluster=false", b.ESTs[:20], noSkip},
		{"one transcript", oneTranscript(), cfg},
	} {
		t.Run(leg.name, func(t *testing.T) { checkWorkerCounts(t, leg.ests, leg.cfg) })
	}
}

func checkWorkerCounts(t *testing.T, ests []seq.Sequence, cfg Config) {
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
		if _, err := set.Append(ests[cut:]); err != nil {
			t.Fatal(err)
		}
		c2 := c1
		c2.InitialLabels = r1.Labels
		r2, err := runSequential(set, c2, workers)
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{one, r1, r2}
	}
	invariant := func(st Stats) [3]int64 {
		return [3]int64{st.PairsGenerated, st.Merges, st.Recovery.SeedMerges}
	}
	want := run(1)
	if want[2].Stats.Incremental.BucketsRebuilt == 0 || want[0].Stats.Merges == 0 {
		t.Fatalf("workload exercises nothing: %+v", want[2].Stats)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for i, got := range run(workers) {
			w, st := want[i], got.Stats
			if !slices.Equal(got.Labels, w.Labels) || got.NumClusters != w.NumClusters {
				t.Errorf("workers=%d run %d: partition differs from one worker's", workers, i)
			}
			if invariant(st) != invariant(w.Stats) || st.Incremental != w.Stats.Incremental {
				t.Errorf("workers=%d run %d: generated/merges/seed merges %v %+v, one worker %v %+v", workers, i,
					invariant(st), st.Incremental, invariant(w.Stats), w.Stats.Incremental)
			}
			if st.PairsProcessed+st.PairsSkipped != st.PairsGenerated || st.PairsAccepted > st.PairsProcessed {
				t.Errorf("workers=%d run %d: processed %d + skipped %d != generated %d, or accepted %d > processed",
					workers, i, st.PairsProcessed, st.PairsSkipped, st.PairsGenerated, st.PairsAccepted)
			}
		}
	}
}

// oneTranscript returns 160 copies of one 50-base transcript, each with one
// substitution: far more pairs than batches hold, all of them in one gene.
func oneTranscript() []seq.Sequence {
	rng := rand.New(rand.NewSource(29))
	base := make(seq.Sequence, 50)
	for i := range base {
		base[i] = seq.Code(rng.Intn(seq.AlphabetSize))
	}
	ests := make([]seq.Sequence, 160)
	for i := range ests {
		e := base.Clone()
		at := rng.Intn(len(e))
		e[at] = (e[at] + seq.Code(1+rng.Intn(seq.AlphabetSize-1))) % seq.AlphabetSize
		ests[i] = e
	}
	return ests
}

// numSuffixes returns how many suffixes the table holds.
func numSuffixes(t *suffix.Buckets) int64 {
	var n int64
	for _, k := range t.Histogram() {
		n += k
	}
	return n
}
