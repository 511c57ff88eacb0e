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

// TestResplitBatchesSamePartition is the metamorphic net's re-splitting
// leg: ingesting the same ESTs in batches, whatever the cuts, must give the
// one-batch partition up to relabelling, and the batches' generated pairs
// must sum to the one-batch run's, since each pair is generated once, in
// the batch that brings its younger string. Each profile — the default,
// ExpressionSkew 2.0 and TestPolyATailFlipsSamePartition's poly(A) one — is
// cut at seeded random points into 2 to 5 batches, and every batch runs
// through RunSet as pace.Session drives it: Append, then the last
// partition as InitialLabels, with a BucketCache on the sequential
// engine. The sequential engine runs at 1 and 8 workers; the p = 3 legs, on
// the simulated and the real transport, run the incremental prologue.
func TestResplitBatchesSamePartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	skewed := benchConfig(100, 6, 7)
	skewed.ExpressionSkew = 2
	polyA := benchConfig(100, 6, 9)
	polyA.PolyATail = [2]int{150, 300}
	polyA.ErrorRate = 0.002
	engines := []struct {
		name    string
		mp      mp.Config
		workers int
	}{
		{"sequential at 1 worker", mp.Config{Procs: 1}, 1},
		{"sequential at 8 workers", mp.Config{Procs: 1}, 8},
		{"p = 3 sim", mp.DefaultSimConfig(3), 0},
		{"p = 3 real", mp.Config{Procs: 3, Mode: mp.ModeReal}, 0},
	}
	rng := rand.New(rand.NewSource(17))
	for _, p := range []struct {
		name string
		sim  simulate.Config
	}{{"default", benchConfig(100, 6, 7)}, {"skew 2.0", skewed}, {"poly(A)", polyA}} {
		b, err := simulate.Generate(p.sim)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(b.ESTs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := normalizeLabels(ref.Labels)
		for range 2 {
			ends := randomSplit(rng, len(b.ESTs))
			for _, e := range engines {
				c := cfg
				c.MP = e.mp
				labels, generated := ingestBatches(t, b.ESTs, ends, c, e.workers)
				if !slices.Equal(normalizeLabels(labels), want) {
					t.Errorf("%s, batches ending at %v, %s: another partition than one batch's", p.name, ends, e.name)
				}
				if generated != ref.Stats.PairsGenerated {
					t.Errorf("%s, batches ending at %v, %s: batches generated %d pairs, one batch %d",
						p.name, ends, e.name, generated, ref.Stats.PairsGenerated)
				}
			}
		}
	}
}

// randomSplit cuts n ESTs into 2 to 5 non-empty batches at random points
// and returns the batches' ends, ascending; the last is n.
func randomSplit(rng *rand.Rand, n int) []int {
	k := 2 + rng.Intn(4)
	ends := rng.Perm(n - 1)[:k-1]
	for i := range ends {
		ends[i]++
	}
	slices.Sort(ends)
	return append(ends, n)
}

// ingestBatches clusters ests batch by batch, each batch ending at the next
// of ends, and returns the last partition and the pairs generated over all
// batches. A sequential run (cfg.MP.Procs == 1) keeps one BucketCache across
// batches and runs at the given worker count.
func ingestBatches(t *testing.T, ests []seq.Sequence, ends []int, cfg Config, workers int) ([]int32, int64) {
	t.Helper()
	var set *seq.SetS
	if cfg.MP.Procs == 1 {
		cfg.Cache = NewBucketCache()
	}
	var labels []int32
	var generated int64
	start := 0
	for _, end := range ends {
		batch := ests[start:end]
		start = end
		c := cfg
		if set == nil {
			var err error
			if set, err = seq.NewSetS(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := set.Append(batch); err != nil {
				t.Fatal(err)
			}
			c.InitialLabels = labels
		}
		var res *Result
		var err error
		if workers > 0 {
			res, err = runSequential(set, c, workers)
		} else {
			res, err = RunSet(set, c)
		}
		if err != nil {
			t.Fatal(err)
		}
		labels = res.Labels
		generated += res.Stats.PairsGenerated
	}
	return labels, generated
}
