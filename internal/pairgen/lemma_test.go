package pairgen

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pace/internal/seq"
)

// stringPair is a canonical pair's two strings: the lower EST's forward
// string and the higher EST's string in either orientation.
type stringPair struct{ s1, s2 seq.StringID }

// longestCommon returns, for every canonical string pair of set whose
// longest common substring is at least psi and whose higher EST has a string
// id of at least freshID, that length: the brute-force side of the lemma
// oracle.
func longestCommon(set *seq.SetS, psi int32, freshID seq.StringID) map[stringPair]int32 {
	want := map[stringPair]int32{}
	for i := 0; i < set.NumESTs(); i++ {
		for j := i + 1; j < set.NumESTs(); j++ {
			fwd := seq.Forward(seq.ESTID(i))
			for _, s2 := range []seq.StringID{seq.Forward(seq.ESTID(j)), seq.Forward(seq.ESTID(j)).Mate()} {
				if s2 < freshID {
					continue
				}
				if l := lcsLen(set.Str(fwd), set.Str(s2)); l >= psi {
					want[stringPair{fwd, s2}] = l
				}
			}
		}
	}
	return want
}

// checkLemmas drains a generator over the whole forest of the input's last
// generation, full and fresh-only, and holds it to the paper's lemmas
// against brute force: every pair's anchor is a maximal common substring of
// length >= psi (Lemma 1); every canonical string pair with a common
// substring of length >= psi is generated (Lemma 3), and its first pair
// carries the longest one; and match lengths never increase along the drain
// (the greedy order). The drain is also the node-array generator's, pair for
// pair.
func checkLemmas(t testing.TB, seed int64, n, w, extraPsi, shape uint8) {
	t.Helper()
	window := 3 + int(w%4)
	psi := window + int(extraPsi%12)
	batches := diffInput(seed, int(n%40), shape)
	set, err := seq.NewSetS(append(batches[0], batches[1]...))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set.Append(batches[2])
	if err != nil {
		t.Fatal(err)
	}
	forest := buildForest(t, set, window)
	nodes := nodesOf(set, forest)
	for _, fresh := range []seq.Gen{0, gen} {
		what := fmt.Sprintf("seed=%d n=%d w=%d psi=%d shape=%d fresh=%d", seed, n%40, window, psi, shape%numShapes, fresh)
		g, err := NewFresh(set, forest, psi, fresh)
		if err != nil {
			t.Fatal(err)
		}
		freshID := set.GenStartString(fresh)
		want := longestCommon(set, int32(psi), freshID)
		first := map[stringPair]int32{}
		pairs := g.Next(nil, math.MaxInt)
		requireSameAsNodeGenerator(t, set, nodes, psi, fresh, pairs, g.Stats())
		for i, p := range pairs {
			if i > 0 && p.MatchLen > pairs[i-1].MatchLen {
				t.Fatalf("%s: pair %d is %d long after one of %d", what, i, p.MatchLen, pairs[i-1].MatchLen)
			}
			if p.S1.IsReverse() || p.S1.EST() >= p.S2.EST() || p.S2 < freshID {
				t.Fatalf("%s: pair %d %+v is not canonical and fresh", what, i, p)
			}
			s1, s2 := set.Str(p.S1), set.Str(p.S2)
			if p.MatchLen < int32(psi) || !slices.Equal(s1[p.Pos1:p.Pos1+p.MatchLen], s2[p.Pos2:p.Pos2+p.MatchLen]) {
				t.Fatalf("%s: pair %d %+v has no common anchor of length >= %d", what, i, p, psi)
			}
			r1, r2 := p.Pos1+p.MatchLen, p.Pos2+p.MatchLen
			if p.Pos1 > 0 && p.Pos2 > 0 && s1[p.Pos1-1] == s2[p.Pos2-1] ||
				int(r1) < len(s1) && int(r2) < len(s2) && s1[r1] == s2[r2] {
				t.Fatalf("%s: pair %d %+v: the anchor extends", what, i, p)
			}
			key := stringPair{p.S1, p.S2}
			if _, ok := first[key]; !ok {
				first[key] = p.MatchLen
			}
		}
		for key, l := range want {
			got, ok := first[key]
			if !ok {
				t.Fatalf("%s: strings %d and %d share %d bases and are never paired", what, key.s1, key.s2, l)
			}
			if got != l {
				t.Fatalf("%s: strings %d and %d share %d bases, but their first pair carries %d", what, key.s1, key.s2, l, got)
			}
		}
		if len(first) != len(want) {
			t.Fatalf("%s: %d string pairs generated, brute force finds %d", what, len(first), len(want))
		}
	}
}

// lemmaSeeds is the pinned corpus of FuzzLemmas: every input shape, the
// window and threshold extremes, and the parameter wrap-around.
func lemmaSeeds() []diffSeed {
	return []diffSeed{
		{1, 3, 0, 0, shapeRandom},   // smallest input: one EST per generation
		{2, 20, 1, 0, shapeDup},     // psi == w: every bucket root is deep
		{3, 30, 2, 11, shapeDup},    // psi far above w
		{4, 39, 0, 3, shapeRandom},  // w = 3: few, large trees
		{5, 39, 3, 2, shapeRandom},  // w = 6: many small trees
		{6, 30, 1, 5, shapePolyA},   // homopolymer tails longer than psi
		{7, 39, 1, 9, shapeDeep},    // 20x coverage
		{8, 25, 2, 1, shapeDup},     // tandem repeats: labels held twice by one string
		{-9, 255, 255, 255, 255},    // parameter wrap-around (255 is shapeDeep)
		{10, 39, 0, 0, shapePolyA},  // psi == w == 3 over poly(A)
		{11, 36, 3, 14, shapeDeep},  // the largest psi over simulated reads
		{12, 17, 2, 7, shapeRandom}, // planted overlaps across generation boundaries
	}
}

// FuzzLemmas explores the lemma oracle from the pinned seeds. Run with
// `go test -fuzz FuzzLemmas ./internal/pairgen`.
func FuzzLemmas(f *testing.F) {
	for _, s := range lemmaSeeds() {
		f.Add(s.seed, s.n, s.w, s.extraPsi, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w, extraPsi, shape uint8) {
		checkLemmas(t, seed, n, w, extraPsi, shape)
	})
}

// TestFuzzSeedsLemmas pins FuzzLemmas' corpus in plain `go test`.
func TestFuzzSeedsLemmas(t *testing.T) {
	for _, s := range lemmaSeeds() {
		checkLemmas(t, s.seed, s.n, s.w, s.extraPsi, s.shape)
	}
}
