package simulate

import (
	"math/rand"
	"slices"
	"testing"

	"pace/internal/align"
	"pace/internal/seq"
)

func TestValidate(t *testing.T) {
	if err := DefaultConfig(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumESTs = 0 },
		func(c *Config) { c.NumGenes = -1 },
		func(c *Config) { c.MinESTLen = 0 },
		func(c *Config) { c.MinESTLen = c.MeanESTLen + 1 },
		func(c *Config) { c.SDESTLen = -1 },
		func(c *Config) { c.ExonLen = [2]int{10, 5} },
		func(c *Config) { c.IntronLen = [2]int{0, 5} },
		func(c *Config) { c.ExonsPerGene = [2]int{0, 2} },
		func(c *Config) { c.ErrorRate = 0.7 },
		func(c *Config) { c.ErrorRate = -0.1 },
		func(c *Config) { c.RevCompProb = 1.5 },
		func(c *Config) { c.ExpressionSkew = -1 },
	}
	for i, mod := range bad {
		c := DefaultConfig(100)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := DefaultConfig(200)
	cfg.NumGenes = 10
	cfg.Seed = 1
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ESTs) != 200 || len(b.Truth) != 200 || len(b.Flipped) != 200 {
		t.Fatalf("lengths: %d %d %d", len(b.ESTs), len(b.Truth), len(b.Flipped))
	}
	if len(b.Genes) != 10 {
		t.Fatalf("genes: %d", len(b.Genes))
	}
	seen := map[int32]int{}
	for _, g := range b.Truth {
		if g < 0 || int(g) >= 10 {
			t.Fatalf("truth out of range: %d", g)
		}
		seen[g]++
	}
	if len(seen) != 10 {
		t.Errorf("only %d genes sampled; every gene should receive an EST", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Seed = 42
	b1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.ESTs {
		if !slices.Equal(b1.ESTs[i], b2.ESTs[i]) || b1.Truth[i] != b2.Truth[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	cfg.Seed = 43
	b3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range b1.ESTs {
		if slices.Equal(b1.ESTs[i], b3.ESTs[i]) {
			same++
		}
	}
	if same == len(b1.ESTs) {
		t.Error("different seeds produced identical data")
	}
}

func TestESTLengths(t *testing.T) {
	cfg := DefaultConfig(300)
	cfg.Seed = 7
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for i, e := range b.ESTs {
		// Indels can shift length slightly beyond the raw clamp range.
		if len(e) < cfg.MinESTLen/2 {
			t.Fatalf("EST %d absurdly short: %d", i, len(e))
		}
		sum += len(e)
	}
	mean := float64(sum) / float64(len(b.ESTs))
	if mean < 350 || mean > 650 {
		t.Errorf("mean EST length %f outside plausible band", mean)
	}
}

func TestGeneStructure(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.Seed = 3
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range b.Genes {
		if len(g.MRNA) < cfg.MeanESTLen {
			t.Errorf("gene %d transcript too short: %d", gi, len(g.MRNA))
		}
		// mRNA must equal the concatenation of the exon intervals.
		var spliced seq.Sequence
		for _, bd := range g.ExonBounds {
			if bd[0] < 0 || bd[1] > len(g.Genomic) || bd[0] >= bd[1] {
				t.Fatalf("gene %d: bad exon bounds %v", gi, bd)
			}
			spliced = append(spliced, g.Genomic[bd[0]:bd[1]]...)
		}
		if !slices.Equal(spliced, g.MRNA) {
			t.Fatalf("gene %d: mRNA is not the exon concatenation", gi)
		}
	}
}

// Each EST must align strongly to its source transcript (in one orientation),
// confirming the generative chain end to end.
func TestESTsAlignToSource(t *testing.T) {
	cfg := DefaultConfig(40)
	cfg.Seed = 11
	cfg.ErrorRate = 0.01
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := align.DefaultScoring()
	for i, e := range b.ESTs {
		mrna := b.Genes[b.Truth[i]].MRNA
		fwd := align.Overlap(e, mrna, sc)
		rev := align.Overlap(e.ReverseComplement(), mrna, sc)
		best := fwd
		if rev.Score > best.Score {
			best = rev
		}
		// A read of length L with ~1% error lies within its transcript, so
		// their overlap alignment scores close to L*match.
		if float64(best.Score) < 0.8*float64(len(e))*float64(sc.Match) {
			t.Fatalf("EST %d does not align to its source (score %d, len %d)", i, best.Score, len(e))
		}
	}
}

func TestFlippedFlagConsistent(t *testing.T) {
	cfg := DefaultConfig(200)
	cfg.Seed = 5
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, f := range b.Flipped {
		if f {
			flips++
		}
	}
	if flips < 50 || flips > 150 {
		t.Errorf("flip count %d implausible for p=0.5", flips)
	}
}

func TestZeroRevComp(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.RevCompProb = 0
	cfg.Seed = 2
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range b.Flipped {
		if f {
			t.Fatalf("EST %d flipped despite p=0", i)
		}
	}
}

func TestMutateZeroRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := seq.Sequence{seq.A, seq.C, seq.G, seq.T}
	m := Mutate(s, 0, rng)
	if !slices.Equal(m, s) {
		t.Error("zero-rate mutate must be identity")
	}
	m[0] = seq.T
	if s[0] != seq.A {
		t.Error("mutate must copy")
	}
}

func TestMutateRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := make(seq.Sequence, 10000)
	for i := range s {
		s[i] = seq.Code(rng.Intn(4))
	}
	m := Mutate(s, 0.05, rng)
	diff := 0
	n := len(s)
	if len(m) < n {
		n = len(m)
	}
	for i := 0; i < n; i++ {
		if s[i] != m[i] {
			diff++
		}
	}
	// With 5% errors the Hamming-ish difference must be clearly nonzero
	// but bounded (indels cause downstream shifts, hence loose upper bound).
	if diff < 100 {
		t.Errorf("too few differences: %d", diff)
	}
}

func TestMutateExtremeRateKeepsNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := seq.Sequence{seq.A}
	for i := 0; i < 100; i++ {
		if len(Mutate(s, 0.5, rng)) == 0 {
			t.Fatal("mutate emptied a sequence")
		}
	}
}

func TestDivergedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := synthesizeGene(DefaultConfig(10), rng)
	p := DivergedCopy(g, 0.1, rng)
	if slices.Equal(p.MRNA, g.MRNA) {
		t.Error("paralog should differ")
	}
	sc := align.DefaultScoring()
	st := align.Overlap(g.MRNA, p.MRNA, sc)
	if st.Identity() < 0.75 {
		t.Errorf("paralog diverged too far: %f", st.Identity())
	}
}

func TestExpressionSkewChangesDepth(t *testing.T) {
	flat := DefaultConfig(1000)
	flat.NumGenes = 20
	flat.ExpressionSkew = 0
	flat.Seed = 12
	skew := flat
	skew.ExpressionSkew = 2.0

	depthSpread := func(c Config) int {
		b, err := Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, c.NumGenes)
		for _, g := range b.Truth {
			counts[g]++
		}
		min, max := counts[0], counts[0]
		for _, k := range counts {
			if k < min {
				min = k
			}
			if k > max {
				max = k
			}
		}
		return max - min
	}
	if depthSpread(skew) <= depthSpread(flat) {
		t.Error("higher skew should widen depth spread")
	}
}

func BenchmarkGenerate1000(b *testing.B) {
	cfg := DefaultConfig(1000)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolyATails(t *testing.T) {
	cfg := DefaultConfig(60)
	cfg.NumGenes = 4
	cfg.PolyATail = [2]int{20, 30}
	cfg.Seed = 13
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range b.Genes {
		// Poly(A) is added post-transcriptionally: present on the mRNA,
		// absent from the genomic sequence.
		tail := g.MRNA[len(g.MRNA)-20:]
		for _, c := range tail {
			if c != seq.A {
				t.Fatalf("gene %d transcript lacks poly(A) tail", gi)
			}
		}
	}
	// 3'-anchored fragments mean many reads carry (possibly flipped)
	// tails: count reads with a >=10 homopolymer A or T end run.
	tailed := 0
	for _, e := range b.ESTs {
		if hasEndRun(e, seq.A) || hasEndRun(e, seq.T) {
			tailed++
		}
	}
	if tailed < len(b.ESTs)/4 {
		t.Errorf("only %d/%d reads carry tails", tailed, len(b.ESTs))
	}
}

func hasEndRun(e seq.Sequence, c seq.Code) bool {
	n := 0
	for i := len(e) - 1; i >= 0 && e[i] == c; i-- {
		n++
	}
	if n >= 10 {
		return true
	}
	n = 0
	for i := 0; i < len(e) && e[i] == c; i++ {
		n++
	}
	return n >= 10
}

func TestPolyATailValidation(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.PolyATail = [2]int{5, 2}
	if err := cfg.Validate(); err == nil {
		t.Error("inverted tail range accepted")
	}
}
