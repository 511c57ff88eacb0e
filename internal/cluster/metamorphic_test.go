package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"pace/internal/mp"
	"pace/internal/seq"
	"pace/internal/simulate"
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
	ref := requireFlipsKeepPartition(t, b.ESTs, cfg)
	if ref.NumClusters < 2 || ref.NumClusters > len(b.ESTs)/2 {
		t.Fatalf("%d clusters of %d ESTs: the input exercises too little", ref.NumClusters, len(b.ESTs))
	}
}

// TestPolyATailFlipsSamePartition is the same leg on untrimmed poly(A)
// tails of 150 to 300 bases, read at a 0.2 % error rate so that tails keep
// their length: reads whose tails share runs past the 255 at which a
// table's LCP bytes saturate make the construction pass and the leaf-range
// walks finish their depths from the strings, and a flipped read brings its
// tail as a poly(T) run at its head.
func TestPolyATailFlipsSamePartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := benchConfig(100, 6, 9)
	sim.PolyATail = [2]int{150, 300}
	sim.ErrorRate = 0.002
	b, err := simulate.Generate(sim)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for _, s := range b.ESTs {
		if max(longestARun(s), longestARun(s.ReverseComplement())) > 255 {
			long++
		}
	}
	if long < 2 {
		t.Fatalf("%d reads hold a run of A longer than 255 bases; the input no longer reaches the saturated case", long)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	requireFlipsKeepPartition(t, b.ESTs, cfg)
}

// longestARun returns the length of the longest run of A in s.
func longestARun(s seq.Sequence) int {
	best, run := 0, 0
	for _, c := range s {
		if run = run + 1; c != seq.A {
			run = 0
		}
		best = max(best, run)
	}
	return best
}

// requireFlipsKeepPartition clusters ests sequentially at one worker, then
// reverse-complements 10 %, 50 % and all of them and requires the same
// partition sequentially at 1 and 8 workers and on the real transport at
// p = 3. It returns the unflipped run.
func requireFlipsKeepPartition(t *testing.T, ests []seq.Sequence, cfg Config) *Result {
	t.Helper()
	ref, err := Run(ests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(ref.Labels)
	rng := rand.New(rand.NewSource(11))
	for _, frac := range []float64{0.1, 0.5, 1} {
		flipped := slices.Clone(ests)
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
	return ref
}
