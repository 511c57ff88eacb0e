package pairgen

import (
	"math/rand"
	"testing"

	"pace/internal/seq"
	"pace/internal/suffix"
)

// diffBatches is the batch-size sweep of the differential tests: the flow-
// control extreme, a size coprime to every group, the engine default, and
// one that drains most inputs in a single call.
var diffBatches = []int{1, 7, 60, 1000}

// diffInput derives a deterministic multi-generation EST input from a seed.
// dup makes it duplicate-heavy: most ESTs are windows of (or exact copies
// of, or reverse complements of) two short bases, one of them a tandem
// repeat, so single nodes see the same string under several children and
// the dedup path carries real weight.
func diffInput(seed int64, n int, dup bool) [][]seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	if n < 3 {
		n = 3
	}
	ests := randomESTs(rng, n, 24, 80)
	if dup {
		bases := randomESTs(rng, 2, 90, 90)
		for i := range bases[1] {
			bases[1][i] = bases[1][i%5] // tandem repeat, period 5
		}
		for i := range ests {
			b := bases[rng.Intn(2)]
			switch rng.Intn(4) {
			case 0: // exact copy of an earlier EST
				if i > 0 {
					ests[i] = ests[rng.Intn(i)].Clone()
				}
			case 1: // reverse complement of a base window
				lo := rng.Intn(40)
				ests[i] = b[lo : lo+30+rng.Intn(20)].ReverseComplement()
			default: // base window
				lo := rng.Intn(40)
				ests[i] = b[lo : lo+30+rng.Intn(20)].Clone()
			}
		}
	} else {
		for i := 1; i < n; i += 2 { // plant overlaps so pairs exist
			cut := 8 + rng.Intn(12)
			ests[i] = append(ests[i-1][cut:].Clone(), ests[i][:cut]...)
		}
	}
	// Three generations: a first batch of at least one EST, then two more.
	a := 1 + rng.Intn(n-2)
	b := a + 1 + rng.Intn(n-a-1)
	return [][]seq.Sequence{ests[:a], ests[a:b], ests[b:]}
}

// freshForest builds the forest the incremental engine would rebuild for
// generation gen: only the buckets the generation's suffixes touch.
func freshForest(t testing.TB, set *seq.SetS, w int, gen seq.Gen) []*suffix.Tree {
	t.Helper()
	hi := seq.StringID(set.NumStrings())
	owner := suffix.AssignFresh(suffix.Histogram(set, w, 0, hi), suffix.HistogramFrom(set, w, gen, 0, hi), 1)
	forest, err := suffix.BuildForest(set, suffix.CollectOwned(set, w, owner, 0, 0, hi), w)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// requireSameAsReference drains the production generator and the linked-list
// oracle over one forest at every batch size in diffBatches and requires the
// identical pair sequence and identical counters.
func requireSameAsReference(t testing.TB, set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) {
	t.Helper()
	for _, batch := range diffBatches {
		g, err := NewFresh(set, forest, psi, fresh)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefFresh(set, forest, psi, fresh)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []Pair
		for {
			n := len(want)
			got, want = g.Next(got, batch), ref.Next(want, batch)
			if len(got) != len(want) {
				t.Fatalf("fresh=%d batch=%d: %d pairs after a call, reference has %d", fresh, batch, len(got), len(want))
			}
			for i := n; i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("fresh=%d batch=%d: pair %d is %+v, reference %+v", fresh, batch, i, got[i], want[i])
				}
			}
			// Slaves report themselves passive off Remaining, so it must
			// flip on the same call as the reference's.
			if g.Remaining() != ref.Remaining() {
				t.Fatalf("fresh=%d batch=%d: Remaining %v, reference %v after %d pairs", fresh, batch, g.Remaining(), ref.Remaining(), len(want))
			}
			if len(want) == n {
				break
			}
		}
		if g.Stats() != ref.Stats() {
			t.Fatalf("fresh=%d batch=%d: stats %+v, reference %+v", fresh, batch, g.Stats(), ref.Stats())
		}
	}
}

// checkMatchesReference is the differential property: over every generation
// of the input, New on the full forest and NewFresh on the generation's
// rebuilt buckets agree with the oracle.
func checkMatchesReference(t testing.TB, seed int64, n, w, extraPsi uint8, dup bool) {
	t.Helper()
	window := 3 + int(w%4)
	psi := window + int(extraPsi%12)
	batches := diffInput(seed, int(n%40), dup)
	set, err := seq.NewSetS(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsReference(t, set, buildForest(t, set, window), psi, 0)
	for _, b := range batches[1:] {
		gen, err := set.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		full := buildForest(t, set, window)
		requireSameAsReference(t, set, full, psi, 0)
		requireSameAsReference(t, set, full, psi, gen)
		requireSameAsReference(t, set, freshForest(t, set, window, gen), psi, gen)
	}
}

// TestMatchesReference sweeps random and duplicate-heavy inputs through the
// differential property: the arena generator must reproduce the linked-list
// generator's pair sequence and counters exactly, full and fresh mode.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		checkMatchesReference(t, rng.Int63(), uint8(6+rng.Intn(30)), uint8(rng.Intn(4)), uint8(rng.Intn(12)), i%2 == 1)
	}
}

type diffSeed struct {
	seed           int64
	n, w, extraPsi uint8
	dup            bool
}

// diffSeeds is the pinned corpus of FuzzGeneratorMatchesReference.
func diffSeeds() []diffSeed {
	return []diffSeed{
		{1, 3, 0, 0, false},       // smallest input: one EST per generation
		{2, 12, 1, 0, true},       // psi == w: every bucket root is deep
		{3, 12, 1, 11, true},      // psi far above w: shallow internal nodes above deep ones
		{4, 39, 0, 2, true},       // w = 3: few, large trees, heavy dedup
		{5, 39, 3, 4, false},      // w = 6: many small trees
		{6, 20, 2, 6, false},      // planted overlaps across generation boundaries
		{7, 30, 1, 1, true},       // tandem repeats: one string under many children
		{-8, 255, 255, 255, true}, // parameter wrap-around
	}
}

// FuzzGeneratorMatchesReference explores the differential property from the
// pinned seeds. Run with `go test -fuzz FuzzGeneratorMatchesReference
// ./internal/pairgen`.
func FuzzGeneratorMatchesReference(f *testing.F) {
	for _, s := range diffSeeds() {
		f.Add(s.seed, s.n, s.w, s.extraPsi, s.dup)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w, extraPsi uint8, dup bool) {
		checkMatchesReference(t, seed, n, w, extraPsi, dup)
	})
}

// TestFuzzSeedsGeneratorMatchesReference pins the seed corpus in plain
// `go test`, so the property holds on it even when the fuzz engine is never
// invoked.
func TestFuzzSeedsGeneratorMatchesReference(t *testing.T) {
	for _, s := range diffSeeds() {
		checkMatchesReference(t, s.seed, s.n, s.w, s.extraPsi, s.dup)
	}
}
