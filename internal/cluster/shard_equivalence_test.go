package cluster

// Equivalence of the merge-delta protocol (Config.MergeShards == 1) with the
// per-pair path: the final partition is the connected components of the
// accepted-pair graph; acceptance is a property of the two sequences alone,
// and pairs a filter skips are already connected, so the components — and
// hence the labels — cannot depend on the merge protocol or the engine. The
// counters legitimately differ (deferred merges skip fewer pairs), so only
// partition-shaped facts are compared. The K0 leg runs the per-pair path on
// every engine against the same reference.
//
// The CI shard-equivalence job runs these under -race.

import (
	"fmt"
	"testing"

	"pace/internal/mp"
	"pace/internal/seq"
)

func TestShardEquivalence(t *testing.T) {
	b := benchSet(t, 100, 6, 7)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18

	// Reference: the per-pair sequential run.
	ref, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	refLabels := normalizeLabels(ref.Labels)

	check := func(t *testing.T, res *Result, k int, parallel bool) {
		t.Helper()
		got := normalizeLabels(res.Labels)
		if len(got) != len(refLabels) {
			t.Fatalf("label count %d vs %d", len(got), len(refLabels))
		}
		diff := 0
		for i := range got {
			if got[i] != refLabels[i] {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("partition differs from the per-pair run at %d of %d ESTs", diff, len(got))
		}
		if res.NumClusters != ref.NumClusters {
			t.Errorf("clusters = %d, per-pair = %d", res.NumClusters, ref.NumClusters)
		}
		if !parallel {
			return
		}
		st := res.Stats
		if st.MasterIdle <= 0 {
			t.Errorf("MasterIdle = %v on a parallel run", st.MasterIdle)
		}
		// Under deltas the master sees spanning edges, not verdicts: every
		// merge arrived as a shipped edge, and at least one edge was shipped.
		var edges int64
		for _, r := range st.PerRank {
			if r.Role == "slave" {
				edges += r.DeltaEdges
			}
		}
		switch {
		case k == 0 && edges != 0:
			t.Errorf("per-pair run shipped %d delta edges", edges)
		case k == 1 && (edges == 0 || edges < st.Merges):
			t.Errorf("slaves shipped %d delta edges for %d merges", edges, st.Merges)
		}
	}

	for _, k := range []int{0, 1} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			seq := base
			seq.MergeShards = k
			res, err := Run(b.ESTs, seq)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("seq", func(t *testing.T) { check(t, res, k, false) })

			for _, mpCfg := range []mp.Config{
				mp.DefaultSimConfig(4),
				{Procs: 4, Mode: mp.ModeReal},
			} {
				mode := "real"
				if mpCfg.Mode == mp.ModeSim {
					mode = "sim"
				}
				t.Run(fmt.Sprintf("p4_%s", mode), func(t *testing.T) {
					cfg := base
					cfg.MergeShards = k
					cfg.MP = mpCfg
					res, err := Run(b.ESTs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					check(t, res, k, true)
					hw := res.Stats.WorkBufHighWater
					if hw <= 0 || hw > cfg.WorkBufCap {
						t.Errorf("WorkBufHighWater %d outside (0, %d]", hw, cfg.WorkBufCap)
					}
				})
			}
		})
	}
}

// TestShardEquivalenceIncremental runs the incremental split (cached prefix
// run, then a fresh-only run seeded with the prefix labels) entirely under
// merge deltas: the label seeding path (seedClusters) and the deferred
// batch-apply path must compose with cache reuse to reproduce the
// from-scratch per-pair partition.
func TestShardEquivalenceIncremental(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	perPair := DefaultConfig(1)
	perPair.Window, perPair.Psi = 6, 18

	full, err := Run(b.ESTs, perPair)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(full.Labels)

	cfg := perPair
	cfg.MergeShards = 1

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

	got := normalizeLabels(r2.Labels)
	if len(got) != len(want) {
		t.Fatalf("label count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delta incremental partition differs from from-scratch per-pair at EST %d", i)
		}
	}
	if r2.NumClusters != full.NumClusters {
		t.Fatalf("clusters = %d, from-scratch = %d", r2.NumClusters, full.NumClusters)
	}
}

// TestShardEquivalenceLargeP proves the label contract holds far past the
// paper's p = 64: deterministic-sim runs at p = 256 and p = 1024 under merge
// deltas must reproduce the per-pair sequential partition exactly.
func TestShardEquivalenceLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("p=1024 sim run in -short mode")
	}
	b := benchSet(t, 120, 6, 9)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18

	ref, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	refLabels := normalizeLabels(ref.Labels)

	for _, p := range []int{256, 1024} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			cfg := base
			cfg.MergeShards = 1
			cfg.MP = mp.DefaultSimConfig(p)
			cfg.MP.MeasureCompute = false // deterministic virtual clock
			res, err := Run(b.ESTs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := normalizeLabels(res.Labels)
			for i := range got {
				if got[i] != refLabels[i] {
					t.Fatalf("partition differs from the per-pair run at EST %d (p=%d)", i, p)
				}
			}
			if res.NumClusters != ref.NumClusters {
				t.Fatalf("clusters = %d, per-pair = %d", res.NumClusters, ref.NumClusters)
			}
		})
	}
}
