package cluster

import (
	"fmt"
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

// TestDuplicatesAndPermutationSamePartition is the metamorphic net's
// duplicate and permutation legs, on the default profile and on
// TestPolyATailFlipsSamePartition's poly(A) profile: a duplicated EST meets
// its original in every bucket with identical suffixes, and a permutation
// changes every (string id, position) tie, so the GST orders every bucket
// differently. The partition must stay the same up to relabelling, with
// each duplicate in its original's cluster.
func TestDuplicatesAndPermutationSamePartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	requireDuplicatesKeepPartition(t, benchSet(t, 100, 6, 7).ESTs, cfg)
	sim := benchConfig(100, 6, 9)
	sim.PolyATail = [2]int{150, 300}
	sim.ErrorRate = 0.002
	b, err := simulate.Generate(sim)
	if err != nil {
		t.Fatal(err)
	}
	requireDuplicatesKeepPartition(t, b.ESTs, cfg)
}

// requireDuplicatesKeepPartition clusters ests sequentially at one worker,
// then duplicates a tenth of them, permutes them, and permutes the
// duplicated input, and requires the same partition of each.
func requireDuplicatesKeepPartition(t *testing.T, ests []seq.Sequence, cfg Config) {
	t.Helper()
	ref, err := Run(ests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(ref.Labels)
	rng := rand.New(rand.NewSource(13))
	duplicated := identity(len(ests))
	for i := range ests {
		if rng.Intn(10) == 0 {
			duplicated = append(duplicated, i)
		}
	}
	permuted := rng.Perm(len(ests))
	both := make([]int, len(duplicated))
	for i, k := range rng.Perm(len(duplicated)) {
		both[i] = duplicated[k]
	}
	for _, c := range []struct {
		what string
		from []int
	}{{"duplicated", duplicated}, {"permuted", permuted}, {"duplicated and permuted", both}} {
		variant := make([]seq.Sequence, len(c.from))
		for i, j := range c.from {
			variant[i] = ests[j]
		}
		requireSamePartition(t, c.what, variant, c.from, cfg, want)
	}
}

// requireFlipsKeepPartition clusters ests sequentially at one worker, then
// reverse-complements 10 %, 50 % and all of them and requires the same
// partition of each. It returns the unflipped run.
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
		requireSamePartition(t, fmt.Sprintf("%.0f %% flipped", 100*frac), flipped, identity(len(ests)), cfg, want)
	}
	return ref
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// requireSamePartition clusters variant, whose EST i is original EST
// from[i] or its reverse complement, sequentially at 1 and 8 workers and on
// the real transport at p = 3. Each run must put every copy of an original
// in one cluster and partition the originals as want does.
func requireSamePartition(t *testing.T, what string, variant []seq.Sequence, from []int, cfg Config, want []int32) {
	t.Helper()
	check := func(how string, res *Result) {
		t.Helper()
		got := make([]int32, len(want))
		seen := make([]bool, len(want))
		for i, j := range from {
			if seen[j] && got[j] != res.Labels[i] {
				t.Errorf("%s, %s: EST %d and its copy at %d are in different clusters", what, how, j, i)
			}
			got[j], seen[j] = res.Labels[i], true
		}
		if !slices.Equal(normalizeLabels(got), want) {
			t.Errorf("%s, %s: %d clusters, another partition of the originals", what, how, res.NumClusters)
		}
	}
	set, err := seq.NewSetS(variant)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		res, err := runSequential(set, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sequential at %d workers", workers), res)
	}
	real := cfg
	real.MP = mp.Config{Procs: 3, Mode: mp.ModeReal}
	res, err := Run(variant, real)
	if err != nil {
		t.Fatal(err)
	}
	check("p = 3 real", res)
}

// TestSkewedAndNoisyProfilesKeepPartition runs the flip, duplicate and
// permutation legs on zipf-skewed profiles, ExpressionSkew 0 and 2.0 against
// the default 0.8, and on a high-error one, ErrorRate 0.06 against 0.02. A
// steep skew piles most reads onto one gene, so the buckets of its shared
// runs are deep and the p = 3 slaves' owner masks uneven; errors break the
// shared runs that join reads, so more of the partition rests on short
// maximal pairs.
func TestSkewedAndNoisyProfilesKeepPartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	for _, p := range []struct {
		skew, errors float64
		// The share of reads on the most expressed gene, and the clusters
		// the reference run finds, must fall in these ranges, or the
		// profile no longer differs from the default as described.
		topShare [2]float64
		clusters [2]int
	}{
		{0, 0.02, [2]float64{0, 0.3}, [2]int{2, 6}},
		{2, 0.02, [2]float64{0.5, 1}, [2]int{2, 6}},
		{0.8, 0.06, [2]float64{0, 1}, [2]int{7, 50}},
	} {
		sim := benchConfig(100, 6, 7)
		sim.ExpressionSkew, sim.ErrorRate = p.skew, p.errors
		b, err := simulate.Generate(sim)
		if err != nil {
			t.Fatal(err)
		}
		reads := make(map[int32]int)
		top := 0
		for _, g := range b.Truth {
			reads[g]++
			top = max(top, reads[g])
		}
		ref := requireFlipsKeepPartition(t, b.ESTs, cfg)
		share := float64(top) / float64(len(b.ESTs))
		if share < p.topShare[0] || share > p.topShare[1] || ref.NumClusters < p.clusters[0] || ref.NumClusters > p.clusters[1] {
			t.Fatalf("skew %v error %v: top gene %.2f of reads and %d clusters, want %v and %v", p.skew, p.errors, share, ref.NumClusters, p.topShare, p.clusters)
		}
		requireDuplicatesKeepPartition(t, b.ESTs, cfg)
	}
}
