package seq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodeOf(t *testing.T) {
	cases := []struct {
		b    byte
		want Code
		ok   bool
	}{
		{'A', A, true}, {'C', C, true}, {'G', G, true}, {'T', T, true},
		{'a', A, true}, {'c', C, true}, {'g', G, true}, {'t', T, true},
		{'N', 0, false}, {'x', 0, false}, {' ', 0, false}, {0, 0, false},
	}
	for _, tc := range cases {
		got, ok := CodeOf(tc.b)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("CodeOf(%q) = %v,%v want %v,%v", tc.b, got, ok, tc.want, tc.ok)
		}
	}
}

func TestByteOfRoundTrip(t *testing.T) {
	for c := Code(0); c < AlphabetSize; c++ {
		got, ok := CodeOf(ByteOf(c))
		if !ok || got != c {
			t.Errorf("round trip failed for code %d", c)
		}
	}
}

func TestComplementInvolution(t *testing.T) {
	for c := Code(0); c < AlphabetSize; c++ {
		if Complement(Complement(c)) != c {
			t.Errorf("complement not an involution at %d", c)
		}
	}
	if Complement(A) != T || Complement(C) != G {
		t.Error("A must pair with T and C with G")
	}
}

func TestParseValid(t *testing.T) {
	s, err := Parse("ACGTacgt")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "ACGTACGT" {
		t.Errorf("got %q", s.String())
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("ACGNT"); err == nil {
		t.Error("want error for N")
	}
	if _, err := Parse("AC GT"); err == nil {
		t.Error("want error for space")
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("")
	if err != nil || len(s) != 0 {
		t.Errorf("Parse(\"\") = %v, %v", s, err)
	}
}

func TestReverseComplementKnown(t *testing.T) {
	s, _ := Parse("AACGT")
	if got := s.ReverseComplement().String(); got != "ACGTT" {
		t.Errorf("rc(AACGT) = %q, want ACGTT", got)
	}
}

func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(raw []byte) bool {
		s := make(Sequence, len(raw))
		for i, b := range raw {
			s[i] = Code(b % AlphabetSize)
		}
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementPairingProperty(t *testing.T) {
	// rc(s)[i] must be the complement of s[len-1-i] for every i.
	f := func(raw []byte) bool {
		s := make(Sequence, len(raw))
		for i, b := range raw {
			s[i] = Code(b % AlphabetSize)
		}
		r := s.ReverseComplement()
		for i := range s {
			if r[i] != Complement(s[len(s)-1-i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	s, _ := Parse("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone must not share backing storage")
	}
}

func TestEqual(t *testing.T) {
	a, _ := Parse("ACGT")
	b, _ := Parse("ACGT")
	c, _ := Parse("ACGA")
	d, _ := Parse("ACG")
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal misbehaves")
	}
}

func TestStringIDMapping(t *testing.T) {
	for e := ESTID(0); e < 100; e++ {
		f, r := Forward(e), Reverse(e)
		if f.EST() != e || r.EST() != e {
			t.Fatalf("EST mapping broken at %d", e)
		}
		if f.IsReverse() || !r.IsReverse() {
			t.Fatalf("orientation broken at %d", e)
		}
		if f.Mate() != r || r.Mate() != f {
			t.Fatalf("Mate broken at %d", e)
		}
	}
}

func TestNewSetSEmpty(t *testing.T) {
	if _, err := NewSetS(nil); err != ErrEmptySet {
		t.Errorf("want ErrEmptySet, got %v", err)
	}
	if _, err := NewSetS([]Sequence{{}}); err == nil {
		t.Error("want error for empty EST")
	}
}

func TestSetSBasics(t *testing.T) {
	e0, _ := Parse("ACGTT")
	e1, _ := Parse("GGC")
	s, err := NewSetS([]Sequence{e0, e1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumESTs() != 2 || s.NumStrings() != 4 {
		t.Fatalf("counts wrong: %d %d", s.NumESTs(), s.NumStrings())
	}
	if s.TotalChars() != 8 {
		t.Errorf("N = %d, want 8", s.TotalChars())
	}
	if !s.Str(Forward(0)).Equal(e0) {
		t.Error("forward string mismatch")
	}
	if got := s.Str(Reverse(0)).String(); got != "AACGT" {
		t.Errorf("rc string = %q, want AACGT", got)
	}
	if !s.EST(1).Equal(e1) {
		t.Error("EST accessor mismatch")
	}
}

func TestSetSLeftChar(t *testing.T) {
	e0, _ := Parse("ACGT")
	s, _ := NewSetS([]Sequence{e0})
	at := s.Start(Forward(0))
	if s.LeftChar(at) != Lambda {
		t.Error("pos 0 must have left char λ")
	}
	if s.LeftChar(at+1) != A {
		t.Error("pos 1 left char must be A")
	}
	if s.LeftChar(at+3) != G {
		t.Error("pos 3 left char must be G")
	}
	if s.LeftChar(s.Start(Reverse(0))) != Lambda {
		t.Error("the reverse string's pos 0 must have left char λ")
	}
}

func TestSetSSuffix(t *testing.T) {
	e0, _ := Parse("ACGT")
	s, _ := NewSetS([]Sequence{e0})
	if got := s.Suffix(Forward(0), 2).String(); got != "GT" {
		t.Errorf("suffix = %q, want GT", got)
	}
}

// A suffix of the reverse complement corresponds to a reverse-complemented
// prefix of the forward string; verify the set invariant on random data.
func TestSetSOrientationConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		e := make(Sequence, n)
		for i := range e {
			e[i] = Code(rng.Intn(AlphabetSize))
		}
		s, err := NewSetS([]Sequence{e})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Str(Reverse(0)).Equal(e.ReverseComplement()) {
			t.Fatal("reverse string is not the reverse complement")
		}
	}
}

func BenchmarkReverseComplement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := make(Sequence, 600)
	for i := range s {
		s[i] = Code(rng.Intn(4))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ReverseComplement()
	}
}

func BenchmarkParse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 600)
	for i := range raw {
		raw[i] = codeToByte[rng.Intn(4)]
	}
	str := string(raw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(str); err != nil {
			b.Fatal(err)
		}
	}
}

// mustParse converts ASCII to a Sequence or fails the test.
func mustParse(t *testing.T, s string) Sequence {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSetSAppendGenerations(t *testing.T) {
	set, err := NewSetS([]Sequence{mustParse(t, "ACGTACGT"), mustParse(t, "TTTTGGGG")})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := set.Append([]Sequence{mustParse(t, "CCCCAAAA")})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := set.Append([]Sequence{mustParse(t, "GATTACAG"), mustParse(t, "ACGTACGT")})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != 1 || g2 != 2 {
		t.Fatalf("generations = %d, %d, want 1, 2", g1, g2)
	}
	if set.NumGenerations() != 3 {
		t.Fatalf("NumGenerations = %d, want 3", set.NumGenerations())
	}
	if set.NumESTs() != 5 || set.NumStrings() != 10 {
		t.Fatalf("n = %d, 2n = %d, want 5, 10", set.NumESTs(), set.NumStrings())
	}
	if set.TotalChars() != 5*8 {
		t.Fatalf("TotalChars = %d, want 40", set.TotalChars())
	}
	wantGens := []Gen{0, 0, 1, 2, 2}
	for e, g := range wantGens {
		if id := ESTID(e); id < set.GenStart(g) || id >= set.GenStart(g+1) {
			t.Errorf("EST %d outside generation %d's range [%d, %d)", e, g, set.GenStart(g), set.GenStart(g+1))
		}
	}
	if set.GenStart(0) != 0 || set.GenStart(1) != 2 || set.GenStart(2) != 3 || set.GenStart(3) != 5 {
		t.Errorf("GenStart boundaries wrong: %d %d %d %d",
			set.GenStart(0), set.GenStart(1), set.GenStart(2), set.GenStart(3))
	}
	if set.GenStartString(2) != Forward(3) {
		t.Errorf("GenStartString(2) = %d, want %d", set.GenStartString(2), Forward(3))
	}
}

// TestSetSTruncateRollsBackAppend proves Truncate is Append's exact inverse:
// after append-then-truncate the set is indistinguishable from one that
// never appended, and a re-append reproduces the original generation tag,
// ids and strings — the contract Session.Add's failure rollback relies on.
func TestSetSTruncateRollsBackAppend(t *testing.T) {
	base := []Sequence{mustParse(t, "ACGTACGT"), mustParse(t, "TTTTGGGG"), mustParse(t, "CCCCAAAA")}
	set, err := NewSetS(base)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := NewSetS(base)
	if err != nil {
		t.Fatal(err)
	}

	batch := []Sequence{mustParse(t, "GATTACAG"), mustParse(t, "ACGTTGCA")}
	g, err := set.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Truncate(len(base)); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	if set.NumESTs() != pristine.NumESTs() || set.NumStrings() != pristine.NumStrings() {
		t.Fatalf("truncated set has n=%d 2n=%d, want %d %d",
			set.NumESTs(), set.NumStrings(), pristine.NumESTs(), pristine.NumStrings())
	}
	if set.TotalChars() != pristine.TotalChars() {
		t.Errorf("TotalChars = %d, want %d", set.TotalChars(), pristine.TotalChars())
	}
	if set.NumGenerations() != pristine.NumGenerations() {
		t.Errorf("NumGenerations = %d, want %d", set.NumGenerations(), pristine.NumGenerations())
	}
	for id := 0; id < set.NumStrings(); id++ {
		if !set.Str(StringID(id)).Equal(pristine.Str(StringID(id))) {
			t.Errorf("string %d differs after rollback", id)
		}
	}

	g2, err := set.Append(batch)
	if err != nil {
		t.Fatalf("re-Append after Truncate: %v", err)
	}
	if g2 != g {
		t.Errorf("re-Append generation = %d, want %d (same as first attempt)", g2, g)
	}
	if set.NumESTs() != len(base)+len(batch) {
		t.Errorf("NumESTs after re-Append = %d, want %d", set.NumESTs(), len(base)+len(batch))
	}
	if got := set.Str(Forward(ESTID(len(base)))); !got.Equal(batch[0]) {
		t.Errorf("re-appended string content differs: %v", got)
	}
	if set.GenStartString(g2) != Forward(ESTID(len(base))) {
		t.Errorf("GenStartString(%d) = %d, want %d", g2, set.GenStartString(g2), Forward(ESTID(len(base))))
	}
}

// TestSetSTruncateMultipleGenerations drops two generations at once and
// checks the generation table shrinks with them.
func TestSetSTruncateMultipleGenerations(t *testing.T) {
	set, err := NewSetS([]Sequence{mustParse(t, "ACGTACGT")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append([]Sequence{mustParse(t, "TTTTGGGG")}); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append([]Sequence{mustParse(t, "CCCCAAAA")}); err != nil {
		t.Fatal(err)
	}
	if err := set.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if set.NumGenerations() != 1 || set.NumESTs() != 1 || set.TotalChars() != 8 {
		t.Errorf("after Truncate(1): gens=%d n=%d N=%d, want 1 1 8",
			set.NumGenerations(), set.NumESTs(), set.TotalChars())
	}
	if got := set.GenStart(1); got != 1 {
		t.Errorf("GenStart(1) = %d, want 1", got)
	}
}

// TestSetSTruncateRejects covers the range guard.
func TestSetSTruncateRejects(t *testing.T) {
	set, err := NewSetS([]Sequence{mustParse(t, "ACGTACGT"), mustParse(t, "TTTTGGGG")})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Truncate(0); err == nil {
		t.Error("Truncate(0): want error")
	}
	if err := set.Truncate(3); err == nil {
		t.Error("Truncate beyond NumESTs: want error")
	}
	if err := set.Truncate(2); err != nil {
		t.Errorf("Truncate(NumESTs): %v, want nil (no-op)", err)
	}
	if set.NumESTs() != 2 {
		t.Errorf("no-op Truncate changed the set: n=%d", set.NumESTs())
	}
}

// Appending an EST shorter than any realistic bucketing window w must still
// keep the set consistent: the EST gets ids and an rc mate like any other,
// and simply contributes no length->=w suffixes downstream.
func TestSetSAppendShortEST(t *testing.T) {
	set, err := NewSetS([]Sequence{mustParse(t, "ACGTACGTACGT")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append([]Sequence{mustParse(t, "ACG")}); err != nil {
		t.Fatal(err)
	}
	short := ESTID(1)
	if got := set.Str(Forward(short)); !got.Equal(mustParse(t, "ACG")) {
		t.Errorf("short EST forward string = %v", got)
	}
	if got := set.Str(Reverse(short)); !got.Equal(mustParse(t, "CGT")) {
		t.Errorf("short EST reverse string = %v, want CGT", got)
	}
	if set.TotalChars() != 12+3 {
		t.Errorf("TotalChars = %d, want 15", set.TotalChars())
	}
}

// Duplicate ESTs across batches are legitimate (resequenced clones): they get
// distinct ids and generations while sharing content.
func TestSetSAppendDuplicateAcrossBatches(t *testing.T) {
	est := mustParse(t, "ACGTTGCAACGT")
	set, err := NewSetS([]Sequence{est})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append([]Sequence{est.Clone()}); err != nil {
		t.Fatal(err)
	}
	if set.NumESTs() != 2 {
		t.Fatalf("NumESTs = %d, want 2", set.NumESTs())
	}
	if !set.EST(0).Equal(set.EST(1)) {
		t.Error("duplicate ESTs should compare equal")
	}
	if set.GenStart(1) != 1 {
		t.Error("duplicate ESTs across batches should differ in generation")
	}
	if !set.Str(Reverse(0)).Equal(set.Str(Reverse(1))) {
		t.Error("duplicate ESTs should have equal reverse complements")
	}
}

// The paper's pairing invariant s_{2i} = rc(s_{2i-1}) must hold over every
// string after any number of Append calls.
func TestSetSAppendPairingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSeq := func(n int) Sequence {
		s := make(Sequence, n)
		for i := range s {
			s[i] = Code(rng.Intn(AlphabetSize))
		}
		return s
	}
	set, err := NewSetS([]Sequence{randSeq(30), randSeq(17)})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 4; batch++ {
		ests := make([]Sequence, 1+rng.Intn(3))
		for i := range ests {
			ests[i] = randSeq(5 + rng.Intn(40))
		}
		if _, err := set.Append(ests); err != nil {
			t.Fatal(err)
		}
		for e := ESTID(0); int(e) < set.NumESTs(); e++ {
			fwd, rev := set.Str(Forward(e)), set.Str(Reverse(e))
			if !rev.Equal(fwd.ReverseComplement()) {
				t.Fatalf("after batch %d: EST %d reverse string is not rc(forward)", batch, e)
			}
			if !fwd.Equal(set.EST(e)) {
				t.Fatalf("after batch %d: EST %d forward string differs from EST()", batch, e)
			}
		}
	}
}

// Append must reject bad batches without mutating the set.
func TestSetSAppendRejects(t *testing.T) {
	set, err := NewSetS([]Sequence{mustParse(t, "ACGTACGT")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := set.Append([]Sequence{mustParse(t, "ACGT"), {}}); err == nil {
		t.Error("batch with empty EST accepted")
	}
	if set.NumESTs() != 1 || set.NumStrings() != 2 || set.NumGenerations() != 1 {
		t.Errorf("failed Append mutated the set: n=%d 2n=%d gens=%d",
			set.NumESTs(), set.NumStrings(), set.NumGenerations())
	}
}

// BenchmarkLocate maps random positions back to (StringID, pos), the lookup
// the pair generator's drain makes for every leaf it walks, in a set the
// size of the bench's seq_sparse input and in one of the paper's 81,414
// ESTs, whose directory no longer fits a core's cache. ESTs are 300 to 640
// bases long.
func BenchmarkLocate(b *testing.B) {
	for _, n := range []int{5000, 81414} {
		b.Run(fmt.Sprintf("ests=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ests := make([]Sequence, n)
			for i := range ests {
				ests[i] = make(Sequence, 300+rng.Intn(341))
			}
			set, err := NewSetS(ests)
			if err != nil {
				b.Fatal(err)
			}
			at := make([]int32, 1<<20)
			for i := range at {
				at[i] = set.Start(StringID(rng.Intn(set.NumStrings()))) + int32(rng.Intn(300))
			}
			b.ResetTimer()
			var sum int32
			for i := 0; i < b.N; i++ {
				id, pos := set.Locate(at[i&(len(at)-1)])
				sum += int32(id) + pos
			}
			located = sum
		})
	}
}

// located keeps BenchmarkLocate's lookups from being optimized away.
var located int32

// The text's positions are int32s, so a set refuses to grow past
// math.MaxInt32 of them. fits is the check NewSetS and Append make before
// they copy a byte: synthetic lengths reach the bound without a 2 GB text.
func TestTextSizeLimit(t *testing.T) {
	// One EST of c characters adds 2c+2 positions to the leading λ.
	if err := fits(1, 1, math.MaxInt32/2-1); err != nil {
		t.Errorf("a text of exactly MaxInt32 positions: %v", err)
	}
	if err := fits(1, 1, math.MaxInt32/2); err == nil || !strings.Contains(err.Error(), "past 2147483647") {
		t.Errorf("one position past MaxInt32: got %v, want the size error", err)
	}
	for _, tc := range []struct {
		have, n int
		chars   int64
	}{
		{math.MaxInt32 - 3, 1, 1},
		{1 << 30, 1 << 20, 1 << 29},
		{1, 1, math.MaxInt64 / 4},
	} {
		if err := fits(tc.have, tc.n, tc.chars); err == nil {
			t.Errorf("%d positions plus %d ESTs of %d characters: want the size error", tc.have, tc.n, tc.chars)
		}
	}
}

// requireSameLayout fails unless the two sets hold byte-identical texts,
// starts, directories and generations.
func requireSameLayout(t *testing.T, what string, got, want *SetS) {
	t.Helper()
	if !slices.Equal(got.text, want.text) || !slices.Equal(got.start, want.start) ||
		!slices.Equal(got.dir, want.dir) || !slices.Equal(got.genStart, want.genStart) {
		t.Fatalf("%s: text %v starts %v directory %v generations %v, want %v %v %v %v", what,
			got.text, got.start, got.dir, got.genStart, want.text, want.start, want.dir, want.genStart)
	}
}

// Append followed by Truncate leaves the text, the starts, the directory and
// the generations byte-identical to a set that never saw the batch, which a
// session's failure-atomic rollback rests on; and appending what a set holds
// gives the layout of a set built from it in one go. The lengths put string
// starts on, before and after 64-position block boundaries.
func TestAppendTruncateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ests := func(lens ...int) []Sequence {
		out := make([]Sequence, len(lens))
		for i, n := range lens {
			out[i] = make(Sequence, n)
			for j := range out[i] {
				out[i][j] = Code(rng.Intn(AlphabetSize))
			}
		}
		return out
	}
	for _, tc := range []struct{ base, batch, later []int }{
		{[]int{1}, []int{1}, []int{2}},
		{[]int{30}, []int{31, 1}, []int{64}},
		{[]int{31}, []int{63, 64, 65}, []int{1, 1, 1}},
		{[]int{200, 7}, []int{129}, []int{500}},
	} {
		base, batch, later := ests(tc.base...), ests(tc.batch...), ests(tc.later...)
		set, err := NewSetS(base)
		if err != nil {
			t.Fatal(err)
		}
		pristine, _ := NewSetS(base)
		if _, err := set.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := set.Append(later); err != nil {
			t.Fatal(err)
		}
		whole, _ := NewSetS(slices.Concat(base, batch, later))
		whole.genStart = set.genStart
		requireSameLayout(t, fmt.Sprintf("%v appended", tc), set, whole)
		if err := set.Truncate(len(base)); err != nil {
			t.Fatal(err)
		}
		requireSameLayout(t, fmt.Sprintf("%v truncated", tc), set, pristine)
		if _, err := set.Append([]Sequence{nil}); err == nil {
			t.Fatal("an empty EST was appended")
		}
		requireSameLayout(t, fmt.Sprintf("%v after a refused append", tc), set, pristine)
	}
}

// checkLocate fails unless set gives every string, every position's
// (StringID, pos) and left character, the generations and N as the
// per-string oracle does.
func checkLocate(t *testing.T, what string, set *SetS, ref *refSetS) {
	t.Helper()
	if set.NumESTs() != ref.NumESTs() || set.NumStrings() != ref.NumStrings() ||
		set.TotalChars() != ref.TotalChars() || set.NumGenerations() != ref.NumGenerations() {
		t.Fatalf("%s: n %d 2n %d N %d generations %d, oracle %d %d %d %d", what, set.NumESTs(), set.NumStrings(),
			set.TotalChars(), set.NumGenerations(), ref.NumESTs(), ref.NumStrings(), ref.TotalChars(), ref.NumGenerations())
	}
	for g := Gen(0); int(g) <= set.NumGenerations(); g++ {
		if set.GenStart(g) != ref.GenStart(g) || set.GenStartString(g) != ref.GenStartString(g) {
			t.Fatalf("%s: generation %d starts at EST %d, oracle %d", what, g, set.GenStart(g), ref.GenStart(g))
		}
	}
	if int(set.Start(StringID(set.NumStrings()))) != len(set.Text()) {
		t.Fatalf("%s: sentinel start %d, text of %d", what, set.Start(StringID(set.NumStrings())), len(set.Text()))
	}
	for id := StringID(0); int(id) < set.NumStrings(); id++ {
		s := set.Str(id)
		if !s.Equal(ref.Str(id)) || cap(s) != len(s) || !set.EST(id.EST()).Equal(ref.EST(id.EST())) {
			t.Fatalf("%s: string %d is %v (capacity %d), oracle %v", what, id, s, cap(s), ref.Str(id))
		}
		for pos := int32(0); int(pos) < len(s); pos++ {
			p := set.Start(id) + pos
			if gid, gpos := set.Locate(p); gid != id || gpos != pos {
				t.Fatalf("%s: position %d locates to (%d,%d), want (%d,%d)", what, p, gid, gpos, id, pos)
			}
			if set.LeftChar(p) != ref.LeftChar(id, pos) || set.Text()[p] != s[pos] {
				t.Fatalf("%s: (%d,%d) has left character %d, oracle %d", what, id, pos, set.LeftChar(p), ref.LeftChar(id, pos))
			}
		}
	}
}

// FuzzLocate drives a set and the per-string oracle through one sequence of
// NewSetS, Append and Truncate read from the input, ESTs from 1 to 256
// characters long, and holds every string, position and generation of the
// set to the oracle after each step. CI's fuzz-smoke job runs it beyond the
// pinned seeds.
func FuzzLocate(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 63, 64, 65, 1, 2, 0, 0, 5, 2, 1, 0, 1, 127})
	f.Add([]byte{1, 255, 0, 3, 0, 0, 0, 2, 0, 0, 2, 200, 7, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		rng := rand.New(rand.NewSource(int64(len(in))))
		batch := func() []Sequence {
			ests := make([]Sequence, 1+next()%4)
			for i := range ests {
				ests[i] = make(Sequence, 1+next())
				for j := range ests[i] {
					ests[i][j] = Code(rng.Intn(AlphabetSize))
				}
			}
			return ests
		}
		first := batch()
		set, err := NewSetS(first)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := newRefSetS(first)
		checkLocate(t, "NewSetS", set, ref)
		for step := 0; step < 12 && len(in) > 0; step++ {
			switch op := next() % 3; op {
			case 0, 1:
				ests := batch()
				g, err := set.Append(ests)
				if err != nil {
					t.Fatal(err)
				}
				if rg, _ := ref.Append(ests); rg != g {
					t.Fatalf("step %d: Append made generation %d, oracle %d", step, g, rg)
				}
			case 2:
				n := 1 + next()%set.NumESTs()
				if err := set.Truncate(n); err != nil {
					t.Fatal(err)
				}
				_ = ref.Truncate(n)
			}
			checkLocate(t, fmt.Sprintf("step %d", step), set, ref)
		}
	})
}
