package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"pace/internal/mp"
	"pace/internal/seq"
	"pace/internal/testutil"
)

// TestReverseComplementSamePartition is the metamorphic net's
// reverse-complement leg: an EST and its reverse complement are the same
// molecule read from the other strand, so reverse-complementing any subset
// of the input must give the same partition. The generator schedules one
// node of each twin pair and mirrors its pairs; flipping an EST swaps which
// of its strings is forward, so every run below meets the twins from the
// other side. It runs sequentially at 1 and 8 workers and on the real
// transport at p = 3.
func TestReverseComplementSamePartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 100, 6, 7)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	ref, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(ref.Labels)
	if ref.NumClusters < 2 || ref.NumClusters > len(b.ESTs)/2 {
		t.Fatalf("%d clusters of %d ESTs: the input exercises too little", ref.NumClusters, len(b.ESTs))
	}
	rng := rand.New(rand.NewSource(11))
	for _, frac := range []float64{0.1, 0.5, 1} {
		flipped := slices.Clone(b.ESTs)
		for i := range flipped {
			if frac == 1 || rng.Float64() < frac {
				flipped[i] = flipped[i].ReverseComplement()
			}
		}
		set, err := seq.NewSetS(flipped)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			res, err := runSequential(set, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := normalizeLabels(res.Labels); !slices.Equal(got, want) {
				t.Errorf("%.0f %% flipped, sequential at %d workers: %d clusters, the unflipped input %d, or another partition", 100*frac, workers, res.NumClusters, ref.NumClusters)
			}
		}
		real := cfg
		real.MP = mp.Config{Procs: 3, Mode: mp.ModeReal}
		res, err := Run(flipped, real)
		if err != nil {
			t.Fatal(err)
		}
		if got := normalizeLabels(res.Labels); !slices.Equal(got, want) {
			t.Errorf("%.0f %% flipped, p = 3 real: %d clusters, the unflipped input %d, or another partition", 100*frac, res.NumClusters, ref.NumClusters)
		}
	}
}
