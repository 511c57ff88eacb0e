package align

import (
	"math/rand"
	"testing"

	"pace/internal/seq"
)

func mustSeq(t testing.TB, s string) seq.Sequence {
	t.Helper()
	out, err := seq.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randSeq(rng *rand.Rand, n int) seq.Sequence {
	s := make(seq.Sequence, n)
	for i := range s {
		s[i] = seq.Code(rng.Intn(4))
	}
	return s
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scoring{
		{Match: 0, Mismatch: -1, GapOpen: -1, GapExtend: -1},
		{Match: 1, Mismatch: 1, GapOpen: -1, GapExtend: -1},
		{Match: 1, Mismatch: -1, GapOpen: 1, GapExtend: -1},
		{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: 0},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	st := Stats{Score: 10, Cols: 10, Matches: 9}
	if st.Identity() != 0.9 {
		t.Errorf("identity %f", st.Identity())
	}
	sc := Scoring{Match: 2, Mismatch: -1, GapOpen: -1, GapExtend: -1}
	if st.ScoreRatio(sc) != 0.5 {
		t.Errorf("ratio %f", st.ScoreRatio(sc))
	}
	var zero Stats
	if zero.Identity() != 0 || zero.ScoreRatio(sc) != 0 {
		t.Error("zero stats must have zero ratios")
	}
}

func TestGlobalIdentical(t *testing.T) {
	sc := DefaultScoring()
	a := mustSeq(t, "ACGTACGTAC")
	st := global(a, a, sc)
	if st.Score != int32(len(a))*sc.Match || st.Matches != int32(len(a)) || st.Cols != int32(len(a)) {
		t.Errorf("identical global wrong: %+v", st)
	}
}

func TestGlobalSingleMismatch(t *testing.T) {
	sc := DefaultScoring()
	a := mustSeq(t, "ACGTACGTAC")
	b := mustSeq(t, "ACGTTCGTAC")
	st := global(a, b, sc)
	want := 9*sc.Match + sc.Mismatch
	if st.Score != want || st.Matches != 9 || st.Cols != 10 {
		t.Errorf("got %+v want score %d", st, want)
	}
}

func TestGlobalSingleInsertion(t *testing.T) {
	sc := DefaultScoring()
	a := mustSeq(t, "ACGTACGTAC")
	b := mustSeq(t, "ACGTAACGTAC") // extra A in middle
	st := global(a, b, sc)
	want := 10*sc.Match + sc.GapOpen + sc.GapExtend
	if st.Score != want {
		t.Errorf("score %d want %d (%+v)", st.Score, want, st)
	}
	if st.Cols != 11 || st.Matches != 10 {
		t.Errorf("counts wrong: %+v", st)
	}
}

func TestGlobalAffinePrefersOneLongGap(t *testing.T) {
	// With affine penalties a 2-gap should cost open + 2*extend, not
	// 2*(open+extend).
	sc := Scoring{Match: 1, Mismatch: -10, GapOpen: -5, GapExtend: -1}
	a := mustSeq(t, "AAAACCCC")
	b := mustSeq(t, "AAAAGGCCCC")
	st := global(a, b, sc)
	want := 8*sc.Match + sc.GapOpen + 2*sc.GapExtend
	if st.Score != want {
		t.Errorf("score %d want %d", st.Score, want)
	}
}

func TestGlobalEmpty(t *testing.T) {
	sc := DefaultScoring()
	a := mustSeq(t, "ACGT")
	st := global(a, seq.Sequence{}, sc)
	want := sc.GapOpen + 4*sc.GapExtend
	if st.Score != want || st.Cols != 4 || st.Matches != 0 {
		t.Errorf("empty-b global: %+v want score %d", st, want)
	}
	st = global(seq.Sequence{}, seq.Sequence{}, sc)
	if st.Score != 0 || st.Cols != 0 {
		t.Errorf("empty-empty: %+v", st)
	}
}

func TestGlobalSymmetry(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		if global(a, b, sc).Score != global(b, a, sc).Score {
			t.Fatalf("global not symmetric at trial %d", i)
		}
	}
}

func TestOverlapSuffixPrefix(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(21))
	ov := randSeq(rng, 40)
	a := append(randSeq(rng, 30), ov...)         // a ends with ov
	b := append(ov.Clone(), randSeq(rng, 30)...) // b starts with ov
	res := Overlap(a, b, sc)
	if res.Score < 40*sc.Match {
		t.Errorf("overlap score %d", res.Score)
	}
	if res.Pattern != ASuffixBPrefix {
		t.Errorf("pattern %v want %v", res.Pattern, ASuffixBPrefix)
	}
	// Mirrored inputs give the mirrored pattern.
	rev := Overlap(b, a, sc)
	if rev.Pattern != BSuffixAPrefix {
		t.Errorf("mirror pattern %v", rev.Pattern)
	}
	if rev.Score != res.Score {
		t.Errorf("mirror score %d != %d", rev.Score, res.Score)
	}
}

func TestOverlapContainment(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(33))
	inner := randSeq(rng, 50)
	outer := append(append(randSeq(rng, 25), inner...), randSeq(rng, 25)...)
	res := Overlap(outer, inner, sc)
	if res.Pattern != AContainsB {
		t.Errorf("pattern %v want %v", res.Pattern, AContainsB)
	}
	if res.Matches < 50 {
		t.Errorf("matches %d", res.Matches)
	}
	res = Overlap(inner, outer, sc)
	if res.Pattern != BContainsA {
		t.Errorf("pattern %v want %v", res.Pattern, BContainsA)
	}
}

func TestOverlapAtLeastGlobal(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 30; i++ {
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		if Overlap(a, b, sc).Score < global(a, b, sc).Score {
			t.Fatalf("overlap < global at trial %d", i)
		}
	}
}

func TestOverlapEmpty(t *testing.T) {
	sc := DefaultScoring()
	res := Overlap(seq.Sequence{}, mustSeq(t, "ACGT"), sc)
	if res.Cols != 0 {
		t.Errorf("empty overlap: %+v", res)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		PatternNone:    "none",
		ASuffixBPrefix: "a-suffix/b-prefix",
		BSuffixAPrefix: "b-suffix/a-prefix",
		AContainsB:     "a-contains-b",
		BContainsA:     "b-contains-a",
	} {
		if p.String() != want {
			t.Errorf("Pattern(%d).String() = %q", p, p.String())
		}
	}
}

func TestClassify(t *testing.T) {
	if classify(false, true, true, false) != ASuffixBPrefix {
		t.Error("suffix/prefix")
	}
	if classify(true, false, false, true) != BSuffixAPrefix {
		t.Error("prefix/suffix")
	}
	if classify(false, true, false, true) != AContainsB {
		t.Error("containment")
	}
	if classify(true, false, true, false) != BContainsA {
		t.Error("containment 2")
	}
	if classify(false, false, true, true) != PatternNone {
		t.Error("none")
	}
	// Equal extents: containment wins.
	if classify(true, true, true, true) != AContainsB {
		t.Error("tie-break")
	}
}

func BenchmarkOverlap600(b *testing.B) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(1))
	x, y := randSeq(rng, 600), randSeq(rng, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Overlap(x, y, sc)
	}
}

// global computes the optimal global (Needleman–Wunsch) alignment of a and b
// with affine gap penalties and returns its statistics: the floor that
// Overlap, whose end gaps are free, never scores below.
func global(a, b seq.Sequence, sc Scoring) Stats {
	n, m := len(a), len(b)
	// Rolling two rows per layer.
	mPrev := make([]cell, m+1)
	mCur := make([]cell, m+1)
	xPrev := make([]cell, m+1)
	xCur := make([]cell, m+1)
	yPrev := make([]cell, m+1)
	yCur := make([]cell, m+1)

	mPrev[0] = cell{}
	xPrev[0], yPrev[0] = deadCell, deadCell
	for j := 1; j <= m; j++ {
		mPrev[j], xPrev[j] = deadCell, deadCell
		yPrev[j] = extendGap(betterOf3(mPrev[j-1], xPrev[j-1], yPrev[j-1]), sc, j == 1)
	}
	for i := 1; i <= n; i++ {
		mCur[0], yCur[0] = deadCell, deadCell
		if i == 1 {
			xCur[0] = extendGap(mPrev[0], sc, true)
		} else {
			xCur[0] = extendGap(xPrev[0], sc, false)
		}
		for j := 1; j <= m; j++ {
			mCur[j] = extendDiag(betterOf3(mPrev[j-1], xPrev[j-1], yPrev[j-1]), sc, a[i-1], b[j-1])
			xCur[j] = better(
				extendGap(better(mPrev[j], yPrev[j]), sc, true),
				extendGap(xPrev[j], sc, false))
			yCur[j] = better(
				extendGap(better(mCur[j-1], xCur[j-1]), sc, true),
				extendGap(yCur[j-1], sc, false))
		}
		mPrev, mCur = mCur, mPrev
		xPrev, xCur = xCur, xPrev
		yPrev, yCur = yCur, yPrev
	}
	return betterOf3(mPrev[m], xPrev[m], yPrev[m]).stats()
}
