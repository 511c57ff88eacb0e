package align

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pace/internal/seq"
)

func newExt(t testing.TB, band int) *Extender {
	t.Helper()
	e, err := NewExtender(DefaultScoring(), band)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewExtenderValidation(t *testing.T) {
	if _, err := NewExtender(DefaultScoring(), 0); err == nil {
		t.Error("band 0 must fail")
	}
	if _, err := NewExtender(Scoring{}, 5); err == nil {
		t.Error("invalid scoring must fail")
	}
}

func TestExtendAnchorRangeChecks(t *testing.T) {
	e := newExt(t, 5)
	a := mustSeq(t, "ACGTACGT")
	if _, err := e.Extend(a, a, 0, 0, 9); err == nil {
		t.Error("over-long anchor must fail")
	}
	if _, err := e.Extend(a, a, -1, 0, 2); err == nil {
		t.Error("negative pos must fail")
	}
	if _, err := e.Extend(a, a, 7, 7, 2); err == nil {
		t.Error("anchor past end must fail")
	}
	// Sums that overflow int32 must be rejected, not wrap past the check.
	for _, c := range [][3]int32{
		{1, 1, math.MaxInt32},
		{1, math.MaxInt32, 1},
		{math.MaxInt32, 1, 1},
		{math.MaxInt32, math.MaxInt32, math.MaxInt32},
	} {
		_, err := e.Extend(a, a, c[0], c[1], c[2])
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Extend(%d,%d,+%d): err = %v, want an out-of-range error", c[0], c[1], c[2], err)
		}
	}
}

func TestExtendIdenticalStrings(t *testing.T) {
	e := newExt(t, 10)
	sc := DefaultScoring()
	a := mustSeq(t, "ACGTACGTACGTACGTACGT")
	res, err := e.Extend(a, a, 5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != int32(len(a))*sc.Match {
		t.Errorf("score %d want %d", res.Score, int32(len(a))*sc.Match)
	}
	if res.Matches != int32(len(a)) || res.Cols != int32(len(a)) {
		t.Errorf("counts: %+v", res.Stats)
	}
	if !res.LeftA || !res.LeftB || !res.RightA || !res.RightB {
		t.Errorf("boundaries: %+v", res)
	}
	if res.Pattern == PatternNone {
		t.Error("identical strings must realize a pattern")
	}
	if res.Identity() != 1 || res.ScoreRatio(sc) != 1 {
		t.Errorf("quality: id=%f ratio=%f", res.Identity(), res.ScoreRatio(sc))
	}
}

func TestExtendSuffixPrefixOverlap(t *testing.T) {
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(2))
	ov := randSeq(rng, 60)
	a := append(randSeq(rng, 40), ov...)
	b := append(ov.Clone(), randSeq(rng, 40)...)
	// Anchor in the middle of the shared region.
	res, err := e.Extend(a, b, 40+10, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != ASuffixBPrefix {
		t.Errorf("pattern %v want %v (%+v)", res.Pattern, ASuffixBPrefix, res)
	}
	if res.Cols != 60 || res.Matches != 60 {
		t.Errorf("overlap extent: %+v", res.Stats)
	}
	if !res.LeftB || !res.RightA || res.LeftA || res.RightB {
		t.Errorf("boundary flags: %+v", res)
	}
}

func TestExtendContainment(t *testing.T) {
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(3))
	inner := randSeq(rng, 80)
	outer := append(append(randSeq(rng, 50), inner...), randSeq(rng, 50)...)
	res, err := e.Extend(outer, inner, 50+30, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != AContainsB {
		t.Errorf("pattern %v (%+v)", res.Pattern, res)
	}
	if res.Matches != 80 {
		t.Errorf("matches %d want 80", res.Matches)
	}
}

func TestExtendWithInsertion(t *testing.T) {
	sc := DefaultScoring()
	e := newExt(t, 10)
	p := mustSeq(t, "ACGTACGTAC")
	s := mustSeq(t, "GTCAGTCAGT")
	a := append(p.Clone(), s...)
	b := append(append(p.Clone(), seq.A), s...) // one extra A in the middle
	res, err := e.Extend(a, b, 0, 0, int32(len(p)))
	if err != nil {
		t.Fatal(err)
	}
	want := 20*sc.Match + sc.GapOpen + sc.GapExtend
	if res.Score != want {
		t.Errorf("score %d want %d (%+v)", res.Score, want, res)
	}
	if res.Cols != 21 || res.Matches != 20 {
		t.Errorf("counts: %+v", res.Stats)
	}
}

func TestExtendWithMismatches(t *testing.T) {
	sc := DefaultScoring()
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(4))
	a := randSeq(rng, 100)
	b := a.Clone()
	// Two substitutions outside the anchor region [40,60).
	b[10] = b[10] ^ 1
	b[80] = b[80] ^ 2
	res, err := e.Extend(a, b, 40, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 98*sc.Match + 2*sc.Mismatch
	if res.Score != want {
		t.Errorf("score %d want %d", res.Score, want)
	}
	if res.Matches != 98 || res.Cols != 100 {
		t.Errorf("counts: %+v", res.Stats)
	}
}

func TestExtendDisjointRejected(t *testing.T) {
	sc := DefaultScoring()
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(8))
	// Strings share only a short spurious anchor.
	anchor := randSeq(rng, 12)
	a := append(append(randSeq(rng, 100), anchor...), randSeq(rng, 100)...)
	b := append(append(randSeq(rng, 100), anchor...), randSeq(rng, 100)...)
	res, err := e.Extend(a, b, 100, 100, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accept(sc, DefaultCriteria()) {
		t.Errorf("spurious anchor must not be accepted: %+v", res)
	}
}

func TestExtendAnchorAtBoundary(t *testing.T) {
	e := newExt(t, 5)
	a := mustSeq(t, "ACGTACGT")
	res, err := e.Extend(a, a, 0, 0, int32(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols != int32(len(a)) || res.Pattern == PatternNone {
		t.Errorf("full-anchor result: %+v", res)
	}
}

func TestExtendZeroAnchor(t *testing.T) {
	// A zero-length anchor at the junction of a perfect suffix-prefix
	// overlap still extends correctly in both directions.
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(12))
	ov := randSeq(rng, 30)
	a := append(randSeq(rng, 20), ov...)
	b := append(ov.Clone(), randSeq(rng, 20)...)
	res, err := e.Extend(a, b, 20+15, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 30 || res.Pattern != ASuffixBPrefix {
		t.Errorf("zero-anchor: %+v", res)
	}
}

// Property: for truly overlapping pairs with moderate error, the banded
// anchored extension matches the unbanded overlap aligner's score.
func TestExtendMatchesOverlapAligner(t *testing.T) {
	sc := DefaultScoring()
	e := newExt(t, 15)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		ov := randSeq(rng, 50+rng.Intn(100))
		a := append(randSeq(rng, rng.Intn(80)), ov...)
		b := append(ov.Clone(), randSeq(rng, rng.Intn(80))...)
		// Sprinkle a few substitutions into b's copy of the overlap,
		// keeping an exact anchor window in the middle.
		mid := len(ov) / 2
		for k := 0; k < 3; k++ {
			p := rng.Intn(len(ov))
			if p >= mid-8 && p < mid+8 {
				continue
			}
			b[p] ^= seq.Code(1 + rng.Intn(3))
		}
		res, err := e.Extend(a, b, int32(len(a)-len(ov)+mid-8), int32(mid-8), 16)
		if err != nil {
			t.Fatal(err)
		}
		ref := Overlap(a, b, sc)
		if res.Score != ref.Score {
			t.Fatalf("trial %d: banded %d != overlap %d", trial, res.Score, ref.Score)
		}
		if res.Pattern != ref.Pattern {
			t.Fatalf("trial %d: pattern %v != %v", trial, res.Pattern, ref.Pattern)
		}
	}
}

func TestExtenderReuseIsDeterministic(t *testing.T) {
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(99))
	a := randSeq(rng, 200)
	b := append(a[50:].Clone(), randSeq(rng, 50)...)
	r1, err := e.Extend(a, b, 60, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Run unrelated extensions to dirty the scratch buffers.
	for i := 0; i < 5; i++ {
		x, y := randSeq(rng, 150), randSeq(rng, 150)
		if _, err := e.Extend(x, y, 10, 10, 5); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := e.Extend(a, b, 60, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("reuse changed result: %+v vs %+v", r1, r2)
	}
}

func TestAcceptCriteria(t *testing.T) {
	sc := DefaultScoring()
	good := Result{
		Stats:   Stats{Score: 100 * sc.Match, Cols: 100, Matches: 100},
		Pattern: ASuffixBPrefix,
	}
	cr := DefaultCriteria()
	if !good.Accept(sc, cr) {
		t.Error("perfect overlap must be accepted")
	}
	short := good
	short.Cols, short.Matches, short.Score = 10, 10, 10*sc.Match
	if short.Accept(sc, cr) {
		t.Error("short overlap must be rejected")
	}
	none := good
	none.Pattern = PatternNone
	if none.Accept(sc, cr) {
		t.Error("patternless result must be rejected")
	}
	dirty := good
	dirty.Matches = 70
	dirty.Score = 70*sc.Match + 30*sc.Mismatch
	if dirty.Accept(sc, cr) {
		t.Error("low-identity result must be rejected")
	}
}

func BenchmarkExtend600(b *testing.B) {
	benchExtendShape(b, shape600, newExt(b, shape600.band).Extend)
}

// checkExtendNeverBeatsOverlap plants anchor into ra at cutA and into rb at
// cutB and requires the anchored extension, at any band, to score no higher
// than the unbanded overlap optimum: it is a restriction of overlap alignment.
func checkExtendNeverBeatsOverlap(t *testing.T, ra, rb, anchor []byte, cutA, cutB uint16, band uint8) {
	t.Helper()
	const maxLen = 300 // Overlap is quadratic
	plant := func(raw []byte, cut uint16) (seq.Sequence, int32) {
		if len(raw) > maxLen {
			raw = raw[:maxLen]
		}
		at := int(cut) % (len(raw) + 1)
		s := make(seq.Sequence, 0, len(raw)+len(anchor))
		for _, c := range append(append(append([]byte(nil), raw[:at]...), anchor...), raw[at:]...) {
			s = append(s, seq.Code(c&3))
		}
		return s, int32(at)
	}
	if len(anchor) > maxLen {
		anchor = anchor[:maxLen]
	}
	a, pa := plant(ra, cutA)
	b, pb := plant(rb, cutB)
	sc := DefaultScoring()
	res, err := newExt(t, 1+int(band)%16).Extend(a, b, pa, pb, int32(len(anchor)))
	if err != nil {
		t.Fatal(err)
	}
	if ref := Overlap(a, b, sc); res.Score > ref.Score {
		t.Fatalf("banded %d beats unbanded optimum %d (band %d, anchor (%d,%d,+%d))\na=%v\nb=%v",
			res.Score, ref.Score, 1+int(band)%16, pa, pb, len(anchor), a, b)
	}
}

// FuzzExtendNeverBeatsOverlap explores the property from pinned seeds, which
// plain `go test` runs: random flanks around a shared anchor as the former
// seeded-loop test drew them, plus the degenerate shapes.
func FuzzExtendNeverBeatsOverlap(f *testing.F) {
	rng := rand.New(rand.NewSource(101))
	raw := func(n int) []byte {
		out := make([]byte, n)
		rng.Read(out)
		return out
	}
	for trial := 0; trial < 12; trial++ {
		f.Add(raw(rng.Intn(120)), raw(rng.Intn(120)), raw(8+rng.Intn(20)),
			uint16(rng.Intn(120)), uint16(rng.Intn(120)), uint8(rng.Intn(16)))
	}
	shared := raw(90)
	f.Add(shared, shared, []byte{}, uint16(40), uint16(40), uint8(7))                            // identical, empty anchor
	f.Add([]byte{}, []byte{}, raw(30), uint16(0), uint16(0), uint8(0))                           // the anchor is everything
	f.Add(raw(60), []byte{}, raw(10), uint16(60), uint16(0), uint8(3))                           // b is the anchor alone
	f.Add(make([]byte, 80), make([]byte, 70), make([]byte, 9), uint16(30), uint16(50), uint8(2)) // homopolymer
	f.Add(shared[:70], shared[20:], []byte{}, uint16(45), uint16(25), uint8(11))                 // suffix-prefix overlap
	f.Fuzz(checkExtendNeverBeatsOverlap)
}

// Property: extension results are symmetric under swapping the sequences
// (scores equal, boundary flags mirrored).
func TestExtendSymmetry(t *testing.T) {
	e := newExt(t, 10)
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		ov := randSeq(rng, 30+rng.Intn(40))
		a := append(randSeq(rng, rng.Intn(50)), ov...)
		b := append(ov.Clone(), randSeq(rng, rng.Intn(50))...)
		pa, pb := int32(len(a)-len(ov)), int32(0)
		r1, err := e.Extend(a, b, pa, pb, int32(len(ov)))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e.Extend(b, a, pb, pa, int32(len(ov)))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Score != r2.Score || r1.Cols != r2.Cols || r1.Matches != r2.Matches {
			t.Fatalf("trial %d: asymmetric stats %+v vs %+v", trial, r1.Stats, r2.Stats)
		}
		if r1.LeftA != r2.LeftB || r1.LeftB != r2.LeftA ||
			r1.RightA != r2.RightB || r1.RightB != r2.RightA {
			t.Fatalf("trial %d: flags not mirrored", trial)
		}
	}
}
