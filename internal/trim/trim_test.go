package trim

import (
	"strings"
	"testing"

	"pace/internal/seq"
	"pace/internal/simulate"
)

func mustSeq(t testing.TB, s string) seq.Sequence {
	t.Helper()
	out, err := seq.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Options{MinRun: 1}).Validate(); err == nil {
		t.Error("MinRun 1 accepted")
	}
	if err := (Options{MinRun: 5, MaxMiss: -1}).Validate(); err == nil {
		t.Error("negative MaxMiss accepted")
	}
	if err := (Options{MinRun: 5, MinRemain: -1}).Validate(); err == nil {
		t.Error("negative MinRemain accepted")
	}
}

func TestTrailingPolyA(t *testing.T) {
	body := strings.Repeat("ACGT", 20)
	s := mustSeq(t, body+strings.Repeat("A", 15))
	got, f, b := Tails(s, Options{MinRun: 10, MaxMiss: 0, MinRemain: 20})
	if f != 0 || b != 15 {
		t.Fatalf("cuts: front=%d back=%d", f, b)
	}
	if got.String() != body {
		t.Errorf("trimmed: %q", got.String())
	}
}

func TestLeadingPolyT(t *testing.T) {
	body := strings.Repeat("GACC", 20)
	s := mustSeq(t, strings.Repeat("T", 12)+body)
	got, f, b := Tails(s, DefaultOptions())
	if f != 12 || b != 0 {
		t.Fatalf("cuts: front=%d back=%d", f, b)
	}
	if got.String() != body {
		t.Errorf("trimmed: %q", got.String())
	}
}

func TestTailWithInterruptions(t *testing.T) {
	body := strings.Repeat("GCGC", 20)
	// Tail: AAAAA C AAAAAA — one miss inside.
	s := mustSeq(t, body+"AAAAACAAAAAA")
	got, _, b := Tails(s, Options{MinRun: 10, MaxMiss: 2, MinRemain: 20})
	if b != 12 {
		t.Fatalf("back cut %d want 12 (%q)", b, got.String())
	}
}

func TestShortRunNotTrimmed(t *testing.T) {
	s := mustSeq(t, strings.Repeat("ACGT", 20)+"AAAA")
	got, f, b := Tails(s, DefaultOptions())
	if f != 0 || b != 0 || len(got) != len(s) {
		t.Errorf("short run trimmed: f=%d b=%d", f, b)
	}
}

func TestCutNeverSplitsInterruption(t *testing.T) {
	// The cut must end on a run character: the G below survives.
	body := strings.Repeat("CGTC", 15)
	s := mustSeq(t, body+"G"+strings.Repeat("A", 11))
	got, _, b := Tails(s, Options{MinRun: 10, MaxMiss: 2, MinRemain: 10})
	if b != 11 {
		t.Fatalf("cut %d want 11", b)
	}
	if got[len(got)-1] != seq.G {
		t.Errorf("trailing char %v, G should survive", got[len(got)-1])
	}
}

func TestMinRemainGuard(t *testing.T) {
	s := mustSeq(t, strings.Repeat("A", 100))
	got, _, _ := Tails(s, Options{MinRun: 10, MaxMiss: 0, MinRemain: 30})
	if len(got) != 30 {
		t.Errorf("remaining %d want 30", len(got))
	}
}

func TestBothEnds(t *testing.T) {
	// Body free of A/T near its ends so miss-tolerant trimming cannot
	// legitimately eat into it.
	body := strings.Repeat("GCGC", 25)
	s := mustSeq(t, strings.Repeat("T", 14)+body+strings.Repeat("A", 14))
	got, f, b := Tails(s, DefaultOptions())
	if f != 14 || b != 14 {
		t.Fatalf("cuts: %d %d", f, b)
	}
	if got.String() != body {
		t.Errorf("body mangled")
	}
}

func TestInvalidOptionsTrimNothing(t *testing.T) {
	s := mustSeq(t, strings.Repeat("A", 50))
	got, f, b := Tails(s, Options{MinRun: 0})
	if f != 0 || b != 0 || len(got) != 50 {
		t.Error("invalid options must be a no-op")
	}
}

func TestBatch(t *testing.T) {
	body := strings.Repeat("ACGC", 20)
	ests := []seq.Sequence{
		mustSeq(t, body+strings.Repeat("A", 12)),
		mustSeq(t, body),
	}
	out, st := Batch(ests, DefaultOptions())
	if st.Reads != 2 || st.Trimmed != 1 || st.CharsRemoved != 12 {
		t.Errorf("stats: %+v", st)
	}
	if len(out[0]) != len(body) || len(out[1]) != len(body) {
		t.Errorf("lengths: %d %d", len(out[0]), len(out[1]))
	}
}

// TestLongTailsRemoved runs estsim's -polya 300 input (its defaults, n =
// 2000, seed 1): 150–300-base tails at 2 % sequencing error carry several
// interruptions each, and a tolerance counted over the whole tail left their
// inner part behind. No trimmed read above MinRemain may keep a
// homopolymer A or T run of ψ, the engine's default promising-pair length.
func TestLongTailsRemoved(t *testing.T) {
	const psi = 20
	cfg := simulate.DefaultConfig(2000)
	cfg.Seed = 1
	cfg.PolyATail = [2]int{150, 300}
	b, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	out, _ := Batch(b.ESTs, o)
	runA, runT := strings.Repeat("A", psi), strings.Repeat("T", psi)
	bad := 0
	for _, r := range out {
		if s := r.String(); len(s) > o.MinRemain && (strings.Contains(s, runA) || strings.Contains(s, runT)) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d trimmed reads keep an A^%d or T^%d run", bad, len(out), psi, psi)
	}
}
