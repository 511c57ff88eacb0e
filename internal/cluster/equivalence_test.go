package cluster

// The determinism contract: the final partition is the set of connected
// components of the accepted-pair graph, and the generators produce a fixed
// pair multiset per bucket tree — neither depends on how buckets are spread
// over slaves or on message arrival order. The same input must therefore
// yield the *identical* partition (up to label renaming) and the identical
// PairsGenerated count whether it is clustered sequentially, on the
// simulated machine, or on the real concurrent machine. The CI
// engine-equivalence job runs the p = 4 tests under -race, the large-p leg
// without.

import (
	"fmt"
	"slices"
	"testing"

	"pace/internal/mp"
)

// normalizeLabels renames cluster labels to first-occurrence order so that
// partitions can be compared with ==.
func normalizeLabels(labels []int32) []int32 {
	next := int32(0)
	remap := make(map[int32]int32, len(labels))
	out := make([]int32, len(labels))
	for i, l := range labels {
		m, ok := remap[l]
		if !ok {
			m = next
			remap[l] = m
			next++
		}
		out[i] = m
	}
	return out
}

func TestEquivalenceAcrossModes(t *testing.T) {
	b := benchSet(t, 100, 6, 7)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18

	ref, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	refLabels := normalizeLabels(ref.Labels)

	sim := mp.DefaultSimConfig(4)
	for _, mpCfg := range []mp.Config{
		sim,
		{Procs: 4, Mode: mp.ModeReal},
	} {
		mode := "real"
		if mpCfg.Mode == mp.ModeSim {
			mode = "sim"
		}
		t.Run(fmt.Sprintf("p4_%s", mode), func(t *testing.T) {
			cfg := base
			cfg.MP = mpCfg
			res, err := Run(b.ESTs, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
				t.Errorf("partition differs from sequential at %d of %d ESTs", diff, len(got))
			}
			if res.NumClusters != ref.NumClusters {
				t.Errorf("clusters = %d, sequential = %d", res.NumClusters, ref.NumClusters)
			}
			if res.Stats.PairsGenerated != ref.Stats.PairsGenerated {
				t.Errorf("PairsGenerated = %d, sequential = %d",
					res.Stats.PairsGenerated, ref.Stats.PairsGenerated)
			}
			// The flow-control invariant must hold on the parallel runs.
			hw := res.Stats.WorkBufHighWater
			if hw <= 0 || hw > cfg.WorkBufCap {
				t.Errorf("WorkBufHighWater %d outside (0, %d]", hw, cfg.WorkBufCap)
			}
		})
	}
}

// TestShardEquivalence holds the master's merge to the same contract: with
// the single master union-find applying verdicts pair by pair (K0, the only
// merge structure), a second sequential run — whose bucket-parallel build
// and overlapped pair drain reorder the verdicts — and the p = 4 sim and
// real runs must all reproduce the reference partition. The parallel legs
// also check the WORKBUF bound and that the master's dispatch loop waited
// on some report.
func TestShardEquivalence(t *testing.T) {
	b := benchSet(t, 100, 6, 7)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18

	ref, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	refLabels := normalizeLabels(ref.Labels)

	check := func(t *testing.T, cfg Config, parallel bool) {
		t.Helper()
		res, err := Run(b.ESTs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(normalizeLabels(res.Labels), refLabels) || res.NumClusters != ref.NumClusters {
			t.Errorf("partition (%d clusters) differs from the reference (%d clusters)", res.NumClusters, ref.NumClusters)
		}
		if !parallel {
			return
		}
		st := res.Stats
		if hw := st.WorkBufHighWater; hw <= 0 || hw > cfg.WorkBufCap {
			t.Errorf("WorkBufHighWater %d outside (0, %d]", hw, cfg.WorkBufCap)
		}
		if st.MasterIdle <= 0 {
			t.Errorf("MasterIdle = %v on a parallel run", st.MasterIdle)
		}
	}

	t.Run("K0", func(t *testing.T) {
		t.Run("seq", func(t *testing.T) { check(t, base, false) })
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
				cfg.MP = mpCfg
				check(t, cfg, true)
			})
		}
	})
}

// TestEquivalenceLargeP holds the contract far past the paper's 128
// processors: deterministic-sim runs at p = 256 and p = 1024, where most
// slaves own a bucket or two and many none, must reproduce the sequential
// partition exactly.
func TestEquivalenceLargeP(t *testing.T) {
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
			cfg.MP = mp.DefaultSimConfig(p)
			cfg.MP.MeasureCompute = false // deterministic virtual clock
			res, err := Run(b.ESTs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(normalizeLabels(res.Labels), refLabels) || res.NumClusters != ref.NumClusters {
				t.Fatalf("partition (%d clusters) differs from the sequential one (%d clusters) at p=%d", res.NumClusters, ref.NumClusters, p)
			}
			if res.Stats.PairsGenerated != ref.Stats.PairsGenerated {
				t.Errorf("PairsGenerated = %d, sequential = %d", res.Stats.PairsGenerated, ref.Stats.PairsGenerated)
			}
		})
	}
}
