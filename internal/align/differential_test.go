package align

import (
	"math"
	"math/rand"
	"testing"

	"pace/internal/seq"
)

// diffScorings is the small scoring table the differential tests draw from:
// the default; two schemes under which equal-score paths abound; one so steep
// that live scores fall through negInf within a few columns; one whose gap
// penalty would wrap a dead score around to the best in the band if a step
// ever added to it; and one whose gap opening alone is dead but wraps to the
// best score there is once a live state takes the whole step. The last three
// pin the dead-state rules for every int32 scoring, not just the sane ones.
var diffScorings = []Scoring{
	DefaultScoring(),
	{Match: 1, Mismatch: -1, GapOpen: 0, GapExtend: -1},
	{Match: 2, Mismatch: -2, GapOpen: -2, GapExtend: -2},
	{Match: 1 << 27, Mismatch: -(1 << 28), GapOpen: -(1 << 28), GapExtend: -(1 << 27)},
	{Match: 1, Mismatch: -1, GapOpen: -(1 << 30), GapExtend: -(1 << 30)},
	{Match: 1, Mismatch: -1, GapOpen: math.MinInt32, GapExtend: -1},
}

// mutate returns s with each base substituted, preceded by an inserted base,
// or deleted with probability rate.
func mutate(rng *rand.Rand, s seq.Sequence, rate float64) seq.Sequence {
	out := make(seq.Sequence, 0, len(s)+len(s)/8+1)
	for _, c := range s {
		if rng.Float64() >= rate {
			out = append(out, c)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, c^seq.Code(1+rng.Intn(3)))
		case 1:
			out = append(out, seq.Code(rng.Intn(4)), c)
		}
	}
	return out
}

// repeatSeq returns unit repeated to length n.
func repeatSeq(unit seq.Sequence, n int) seq.Sequence {
	out := make(seq.Sequence, n)
	for i := range out {
		out[i] = unit[i%len(unit)]
	}
	return out
}

// requireBandAlignSame asserts that the flat kernel and the cell kernel return
// the same cell and boundary flags for (a, b).
func requireBandAlignSame(t *testing.T, e *Extender, ref *refExtender, a, b seq.Sequence) {
	t.Helper()
	got, gotA, gotB := e.bandAlign(a, b)
	want, wantA, wantB := ref.refBandAlign(a, b)
	if got != want || gotA != wantA || gotB != wantB {
		t.Fatalf("band %d scoring %+v, |a|=%d |b|=%d:\n got %+v aEx=%v bEx=%v\nwant %+v aEx=%v bEx=%v\na=%v\nb=%v",
			e.band, e.sc, len(a), len(b), got, gotA, gotB, want, wantA, wantB, a, b)
	}
}

// requireExtendSame asserts that Extend returns the oracle's Result field for
// field (or its error) at the given anchor.
func requireExtendSame(t *testing.T, e *Extender, ref *refExtender, a, b seq.Sequence, posA, posB, anchorLen int32) {
	t.Helper()
	got, gotErr := e.Extend(a, b, posA, posB, anchorLen)
	want, wantErr := ref.Extend(a, b, posA, posB, anchorLen)
	if got != want || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("band %d scoring %+v anchor (%d,%d,+%d), |a|=%d |b|=%d:\n got %+v err=%v\nwant %+v err=%v\na=%v\nb=%v",
			e.band, e.sc, posA, posB, anchorLen, len(a), len(b), got, gotErr, want, wantErr, a, b)
	}
}

// randAnchor picks an in-range anchor. Extend does not look at the anchor's
// content, so it need not be a common substring.
func randAnchor(rng *rand.Rand, a, b seq.Sequence) (posA, posB, anchorLen int32) {
	pa, pb := rng.Intn(len(a)+1), rng.Intn(len(b)+1)
	return int32(pa), int32(pb), int32(rng.Intn(min(len(a)-pa, len(b)-pb) + 1))
}

// diffPairs returns one pair per input family the issue names: shapes where
// the band, the row cap, the sentinels and the tie-breaks each decide the
// answer.
func diffPairs(rng *rand.Rand, band int) [][2]seq.Sequence {
	n := 40 + rng.Intn(160)
	base := randSeq(rng, n)
	homo := repeatSeq(seq.Sequence{seq.Code(rng.Intn(4))}, n)
	tandem := repeatSeq(randSeq(rng, 2+rng.Intn(3)), n)
	return [][2]seq.Sequence{
		{base, base.Clone()},
		{base, mutate(rng, base, 0.02)},
		{base, mutate(rng, base, 0.12)},
		{base, randSeq(rng, 40+rng.Intn(160))},
		{base, nil},
		{nil, base},
		{base, mutate(rng, base[:1+rng.Intn(band)], 0.1)},
		{randSeq(rng, 1+rng.Intn(band)), randSeq(rng, 1+rng.Intn(band))},
		{randSeq(rng, 30), randSeq(rng, 600)},
		{base[:30], mutate(rng, append(base.Clone(), randSeq(rng, 600-n)...), 0.02)},
		{homo, homo[:n-rng.Intn(band+2)]},
		{homo, mutate(rng, homo, 0.05)},
		{tandem, tandem[rng.Intn(4):]},
		{tandem, mutate(rng, tandem, 0.05)},
	}
}

// TestBandAlignMatchesReference sweeps bands 1–16 over every input family and
// scoring: identical cell and flags from the kernel in both argument orders,
// and an identical Result through Extend at random anchors. One Extender per
// (band, scoring) serves every input, so stale lanes are in play throughout.
func TestBandAlignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for band := 1; band <= 16; band++ {
		for _, sc := range diffScorings {
			e, err := NewExtender(sc, band)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefExtender(sc, band)
			for _, p := range diffPairs(rng, band) {
				a, b := p[0], p[1]
				requireBandAlignSame(t, e, ref, a, b)
				requireBandAlignSame(t, e, ref, b, a)
				for k := 0; k < 3; k++ {
					pa, pb, l := randAnchor(rng, a, b)
					requireExtendSame(t, e, ref, a, b, pa, pb, l)
				}
			}
		}
	}
}

// extendSeed is one pinned input of FuzzExtendMatchesReference.
type extendSeed struct {
	a, b               []byte
	posA, posB, anchor uint16
	band, scoring      uint8
}

// extendSeeds is the pinned corpus; plain `go test` runs every entry.
func extendSeeds() []extendSeed {
	rng := rand.New(rand.NewSource(21))
	raw := func(s seq.Sequence) []byte {
		out := make([]byte, len(s))
		for i, c := range s {
			out[i] = byte(c) | byte(rng.Intn(64))<<2 // high bits are ignored
		}
		return out
	}
	g := randSeq(rng, 300)
	homo := repeatSeq(seq.Sequence{seq.T}, 120)
	tandem := repeatSeq(seq.Sequence{seq.A, seq.C}, 150)
	return []extendSeed{
		{nil, nil, 0, 0, 0, 0, 0},                                       // both empty
		{raw(g), raw(g), 100, 100, 20, 11, 0},                           // identical, default band
		{raw(g), raw(mutate(rng, g, 0.02)), 140, 140, 12, 11, 0},        // sequencing-error shape
		{raw(g), raw(mutate(rng, g, 0.12)), 150, 150, 0, 11, 1},         // paralog shape, ties
		{raw(g[:30]), raw(g), 10, 200, 8, 4, 0},                         // lopsided: the row cap
		{raw(g[200:]), raw(g[:240]), 0, 200, 40, 7, 2},                  // suffix-prefix overlap
		{raw(homo), raw(homo[:100]), 50, 40, 10, 2, 1},                  // homopolymer: every path ties
		{raw(tandem), raw(mutate(rng, tandem, 0.05)), 60, 60, 4, 15, 2}, // tandem repeat
		{raw(g[:5]), raw(g[3:9]), 2, 1, 1, 0, 3},                        // shorter than the band; wrapping scores
		{raw(g), raw(randSeq(rng, 280)), 299, 0, 1, 255, 3},             // unrelated; parameter wrap-around
		{raw(g[:64]), raw(g[:64]), 65535, 65535, 65535, 8, 0},           // anchor reduced into range
		{raw(randSeq(rng, 90)), raw(randSeq(rng, 3)), 45, 1, 2, 1, 1},   // band 2, three columns
	}
}

// checkExtendMatchesReference maps raw fuzz input onto two sequences, an
// in-range anchor, a band in 1..16 and a scoring from diffScorings, and
// requires kernel and Extend to equal the oracle.
func checkExtendMatchesReference(t *testing.T, ra, rb []byte, posA, posB, anchor uint16, band, scoring uint8) {
	t.Helper()
	a, b := make(seq.Sequence, len(ra)), make(seq.Sequence, len(rb))
	for i, c := range ra {
		a[i] = seq.Code(c & 3)
	}
	for i, c := range rb {
		b[i] = seq.Code(c & 3)
	}
	pa, pb := int(posA)%(len(a)+1), int(posB)%(len(b)+1)
	l := int(anchor) % (min(len(a)-pa, len(b)-pb) + 1)
	sc := diffScorings[int(scoring)%len(diffScorings)]
	bd := 1 + int(band)%16

	e, err := NewExtender(sc, bd)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefExtender(sc, bd)
	requireBandAlignSame(t, e, ref, a[pa+l:], b[pb+l:])
	requireExtendSame(t, e, ref, a, b, int32(pa), int32(pb), int32(l))
	// The same Extender again with the roles swapped: lanes are now dirty.
	requireExtendSame(t, e, ref, b, a, int32(pb), int32(pa), int32(l))
}

// FuzzExtendMatchesReference explores the differential property from the
// pinned seeds. Run with `go test -fuzz FuzzExtendMatchesReference
// ./internal/align`.
func FuzzExtendMatchesReference(f *testing.F) {
	for _, s := range extendSeeds() {
		f.Add(s.a, s.b, s.posA, s.posB, s.anchor, s.band, s.scoring)
	}
	f.Fuzz(checkExtendMatchesReference)
}

// TestExtenderReuseLeaksNothing feeds one Extender a long pair, then a short
// one, then a lopsided one, and back: each Result must be what a fresh
// Extender returns. Lane contents beyond a row's sentinels are stale by
// design; a kernel that read them would differ here.
func TestExtenderReuseLeaksNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := randSeq(rng, 500)
	type input struct {
		name             string
		a, b             seq.Sequence
		posA, posB, alen int32
	}
	inputs := []input{
		{"long", long, mutate(rng, long, 0.03), 250, 250, 0},
		{"short", long[:9], long[2:8], 3, 1, 2},
		{"lopsided-right", long[:60], long[20:], 20, 0, 15},
		{"lopsided-left", long[440:], long[:480], 0, 440, 20},
		{"empty-side", long[:40], long[:40], 0, 0, 40},
	}
	for _, sc := range diffScorings {
		for _, band := range []int{1, 3, 12} {
			shared, err := NewExtender(sc, band)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for _, in := range inputs {
					fresh, err := NewExtender(sc, band)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Extend(in.a, in.b, in.posA, in.posB, in.alen)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shared.Extend(in.a, in.b, in.posA, in.posB, in.alen)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("band %d scoring %+v round %d %s: reused %+v, fresh %+v",
							band, sc, round, in.name, got, want)
					}
				}
			}
		}
	}
}

// TestExtendAllocationFree pins the Extender's allocation profile: the lanes
// are two allocations made once, and Extend allocates nothing once the
// reversal buffers have seen the longest input.
func TestExtendAllocationFree(t *testing.T) {
	x, y, pa, pb, l := shape600.input()
	e := newExt(t, shape600.band)
	if _, err := e.Extend(x, y, pa, pb, l); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := e.Extend(x, y, pa, pb, l); err != nil {
			t.Fatal(err)
		}
		// A shorter input after the longest must not allocate either.
		if _, err := e.Extend(x[:100], y[:80], 40, 30, 10); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Extend allocates %v objects per call pair, want 0", got)
	}
	// The parent's NewExtender made seven: the Extender and six []cell rows.
	if got := testing.AllocsPerRun(20, func() {
		if _, err := NewExtender(DefaultScoring(), 12); err != nil {
			t.Fatal(err)
		}
	}); got >= 7 {
		t.Errorf("NewExtender allocates %v objects, want fewer than the parent's 7", got)
	}
}

// extendShape is one microbenchmark input: BenchmarkExtend<name> times the
// production kernel on it and BenchmarkRefExtend/<name> the oracle, so every
// old → new quote is over the same bytes.
type extendShape struct {
	name  string
	band  int
	input func() (x, y seq.Sequence, posA, posB, anchorLen int32)
}

var extendShapes = []extendShape{shape600, shapeParalog, shapeLopsided}

// shape600: two 600-base reads overlapping by 300, exact — the trajectory row.
var shape600 = extendShape{"600", 15, func() (seq.Sequence, seq.Sequence, int32, int32, int32) {
	rng := rand.New(rand.NewSource(1))
	ov := randSeq(rng, 300)
	x := append(randSeq(rng, 300), ov...)
	y := append(ov.Clone(), randSeq(rng, 300)...)
	return x, y, 450, 150, 20
}}

// shapeParalog is the seq_paralog shape: two full-length 550-base reads of
// paralogous genes, 12 % apart, anchored on a surviving 20-mer — aligned end
// to end and rejected.
var shapeParalog = extendShape{"Paralog", 12, func() (seq.Sequence, seq.Sequence, int32, int32, int32) {
	rng := rand.New(rand.NewSource(2))
	x := randSeq(rng, 550)
	left := mutate(rng, x[:265], 0.12)
	y := append(append(left, x[265:285]...), mutate(rng, x[285:], 0.12)...)
	return x, y, 265, int32(len(left)), 20
}}

// shapeLopsided is the dead-row shape, a 60-base suffix-prefix overlap: the
// anchor starts 40 bases from the end of a while b runs on for 500, so the
// left extension has 520 rows of a against 20 columns of b and all but the
// first 20+band of them lie wholly beyond b.
var shapeLopsided = extendShape{"Lopsided", 12, func() (seq.Sequence, seq.Sequence, int32, int32, int32) {
	rng := rand.New(rand.NewSource(3))
	ov := randSeq(rng, 60)
	x := append(randSeq(rng, 500), ov...)
	y := append(ov.Clone(), randSeq(rng, 500)...)
	return x, y, 520, 20, 20
}}

func benchExtendShape(b *testing.B, sh extendShape, extend func(a, b seq.Sequence, posA, posB, anchorLen int32) (Result, error)) {
	x, y, pa, pb, l := sh.input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extend(x, y, pa, pb, l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtendParalog(b *testing.B) {
	benchExtendShape(b, shapeParalog, newExt(b, shapeParalog.band).Extend)
}

func BenchmarkExtendLopsided(b *testing.B) {
	benchExtendShape(b, shapeLopsided, newExt(b, shapeLopsided.band).Extend)
}

// BenchmarkRefExtend is the "old" side of the three BenchmarkExtend* rows.
func BenchmarkRefExtend(b *testing.B) {
	for _, sh := range extendShapes {
		b.Run(sh.name, func(b *testing.B) {
			benchExtendShape(b, sh, newRefExtender(DefaultScoring(), sh.band).Extend)
		})
	}
}

// TestExtendShapesAreWhatTheyClaim keeps the benchmark inputs honest: the
// paralog pair realizes a pattern and is rejected on quality, the other two
// are accepted, and production and oracle agree on all three.
func TestExtendShapesAreWhatTheyClaim(t *testing.T) {
	for _, sh := range extendShapes {
		x, y, pa, pb, l := sh.input()
		e := newExt(t, sh.band)
		ref := newRefExtender(DefaultScoring(), sh.band)
		requireExtendSame(t, e, ref, x, y, pa, pb, l)
		res, err := e.Extend(x, y, pa, pb, l)
		if err != nil {
			t.Fatal(err)
		}
		accepted := res.Accept(DefaultScoring(), DefaultCriteria())
		if sh.name != shapeParalog.name {
			if !accepted {
				t.Errorf("%s shape must be accepted: %+v", sh.name, res)
			}
		} else if accepted || res.Pattern == PatternNone || res.Identity() < 0.8 {
			t.Errorf("paralog shape: accepted=%v %+v identity %.3f", accepted, res, res.Identity())
		}
	}
}
