// Package simulate generates synthetic EST benchmarks with known ground
// truth. It stands in for the paper's 81,414 Arabidopsis thaliana ESTs and
// their "correct clustering" (which the authors derived from the finished
// genome): we instead derive correctness by construction, remembering which
// gene every EST was sampled from.
//
// The generative model follows the biology sketched in the paper's Figure 1:
// a gene is a genomic stretch of alternating exons and introns; its mRNA is
// the concatenation of the exons; cDNA fragments of varying lengths are
// 3'-anchored subsequences of the mRNA (oligo-dT priming); an EST is a
// single sequencing read of 400–700 bases taken from either end of a
// fragment, perturbed by substitution/insertion/deletion errors, and
// deposited in an arbitrary, unrecorded strand orientation.
package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"pace/internal/seq"
)

// Config parameterizes benchmark generation. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// NumESTs is the total number of ESTs to emit (the paper's n).
	NumESTs int
	// NumGenes is the number of distinct genes. 0 derives it as
	// NumESTs/20 (≥1), giving a mean sampling depth of 20x.
	NumGenes int

	// MeanESTLen and SDESTLen shape the read-length distribution
	// (paper: average EST length 500-600).
	MeanESTLen int
	SDESTLen   int
	// MinESTLen floors read lengths; reads shorter than this are clamped.
	MinESTLen int

	// ExonLen and IntronLen are inclusive [min,max] ranges for gene
	// structure; ExonsPerGene likewise.
	ExonLen      [2]int
	IntronLen    [2]int
	ExonsPerGene [2]int

	// ErrorRate is the total per-base sequencing error probability,
	// split 80% substitutions, 10% insertions, 10% deletions.
	ErrorRate float64
	// RevCompProb is the probability an EST is deposited as its reverse
	// complement (strand unknown to the clusterer).
	RevCompProb float64
	// ExpressionSkew is the Zipf-like exponent governing how unevenly
	// ESTs are distributed over genes; 0 means uniform depth.
	ExpressionSkew float64

	// AltSpliceProb is the probability that a gene (with at least three
	// exons) carries an alternatively spliced isoform that skips one
	// internal exon; ESTs from such genes sample either isoform equally.
	// Detecting these events is the paper's named "additional
	// processing" extension.
	AltSpliceProb float64

	// PolyATail, when non-zero, appends a poly(A) tail of length drawn
	// uniformly from the inclusive range to every transcript's 3' end —
	// the real-world feature that makes tail trimming necessary before
	// suffix-tree clustering.
	PolyATail [2]int

	// ParalogFamilies gives that many genes a diverged duplicate
	// (a paralog) sampled like any other gene — a stress scenario for
	// telling near-identical gene family members apart. Capped at the
	// number of base genes.
	ParalogFamilies int
	// ParalogDivergence is the per-base mutation rate applied to a
	// paralog's transcript (e.g. 0.1 = 10% diverged).
	ParalogDivergence float64

	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig returns parameters modeled on the paper's data set.
func DefaultConfig(numESTs int) Config {
	return Config{
		NumESTs:        numESTs,
		MeanESTLen:     550,
		SDESTLen:       60,
		MinESTLen:      150,
		ExonLen:        [2]int{120, 400},
		IntronLen:      [2]int{60, 300},
		ExonsPerGene:   [2]int{3, 8},
		ErrorRate:      0.02,
		RevCompProb:    0.5,
		ExpressionSkew: 0.8,
	}
}

// Validate checks a Config for consistency.
func (c Config) Validate() error {
	if c.NumESTs <= 0 {
		return fmt.Errorf("simulate: NumESTs must be positive, got %d", c.NumESTs)
	}
	if c.NumGenes < 0 {
		return fmt.Errorf("simulate: NumGenes must be non-negative")
	}
	if c.MeanESTLen < c.MinESTLen || c.MinESTLen <= 0 {
		return fmt.Errorf("simulate: need 0 < MinESTLen <= MeanESTLen")
	}
	if c.SDESTLen < 0 {
		return fmt.Errorf("simulate: SDESTLen must be non-negative")
	}
	for _, r := range [][2]int{c.ExonLen, c.IntronLen, c.ExonsPerGene} {
		if r[0] <= 0 || r[1] < r[0] {
			return fmt.Errorf("simulate: invalid range %v", r)
		}
	}
	if c.ErrorRate < 0 || c.ErrorRate > 0.5 {
		return fmt.Errorf("simulate: ErrorRate %f out of [0, 0.5]", c.ErrorRate)
	}
	if c.RevCompProb < 0 || c.RevCompProb > 1 {
		return fmt.Errorf("simulate: RevCompProb %f out of [0,1]", c.RevCompProb)
	}
	if c.ExpressionSkew < 0 {
		return fmt.Errorf("simulate: ExpressionSkew must be non-negative")
	}
	if c.AltSpliceProb < 0 || c.AltSpliceProb > 1 {
		return fmt.Errorf("simulate: AltSpliceProb %f out of [0,1]", c.AltSpliceProb)
	}
	if c.PolyATail != [2]int{} && (c.PolyATail[0] < 1 || c.PolyATail[1] < c.PolyATail[0]) {
		return fmt.Errorf("simulate: invalid PolyATail range %v", c.PolyATail)
	}
	if c.ParalogFamilies < 0 {
		return fmt.Errorf("simulate: ParalogFamilies must be non-negative")
	}
	if c.ParalogDivergence < 0 || c.ParalogDivergence > 0.5 {
		return fmt.Errorf("simulate: ParalogDivergence %f out of [0, 0.5]", c.ParalogDivergence)
	}
	return nil
}

// Gene is one simulated gene.
type Gene struct {
	// Genomic is the gene's genomic sequence (exons and introns).
	Genomic seq.Sequence
	// MRNA is the spliced transcript (concatenated exons).
	MRNA seq.Sequence
	// ExonBounds are [start,end) intervals of the exons within Genomic.
	ExonBounds [][2]int
	// SkippedIsoform is an alternatively spliced transcript omitting
	// exon SkippedExon, or nil when the gene has a single isoform.
	SkippedIsoform seq.Sequence
	// SkippedExon is the index of the omitted exon (-1 if none).
	SkippedExon int
}

// Benchmark is a generated data set with ground truth.
type Benchmark struct {
	// ESTs are the reads, in emission order.
	ESTs []seq.Sequence
	// Truth[i] is the gene index EST i was sampled from — the correct
	// clustering.
	Truth []int32
	// Flipped[i] records whether EST i was deposited reverse-complemented
	// (hidden from the clusterer; useful for diagnostics).
	Flipped []bool
	// FromIsoform[i] records whether EST i was sampled from its gene's
	// exon-skipping isoform (always false without AltSpliceProb).
	FromIsoform []bool
	// Genes are the source genes.
	Genes []Gene
	// Config echoes the generating configuration.
	Config Config
}

// Generate builds a benchmark from cfg.
func Generate(cfg Config) (*Benchmark, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumGenes == 0 {
		cfg.NumGenes = cfg.NumESTs / 20
		if cfg.NumGenes == 0 {
			cfg.NumGenes = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	b := &Benchmark{
		ESTs:    make([]seq.Sequence, 0, cfg.NumESTs),
		Truth:   make([]int32, 0, cfg.NumESTs),
		Flipped: make([]bool, 0, cfg.NumESTs),
		Genes:   make([]Gene, cfg.NumGenes),
		Config:  cfg,
	}
	for g := range b.Genes {
		b.Genes[g] = synthesizeGene(cfg, rng)
		gene := &b.Genes[g]
		gene.SkippedExon = -1
		if cfg.AltSpliceProb > 0 && len(gene.ExonBounds) >= 3 && rng.Float64() < cfg.AltSpliceProb {
			k := 1 + rng.Intn(len(gene.ExonBounds)-2) // internal exon
			var iso seq.Sequence
			for e, bd := range gene.ExonBounds {
				if e == k {
					continue
				}
				iso = append(iso, gene.Genomic[bd[0]:bd[1]]...)
			}
			if len(iso) >= cfg.MinESTLen {
				gene.SkippedIsoform = iso
				gene.SkippedExon = k
			}
		}
		if cfg.PolyATail != [2]int{} {
			tail := make(seq.Sequence, randRange(rng, cfg.PolyATail))
			// make() zeroes the slice and seq.A == 0: an all-A tail.
			gene.MRNA = append(gene.MRNA, tail...)
			if gene.SkippedIsoform != nil {
				gene.SkippedIsoform = append(gene.SkippedIsoform, tail...)
			}
		}
	}
	// Paralogs: diverged duplicates of the first k genes, appended as
	// genes of their own (a paralog's ESTs form their own true cluster).
	k := cfg.ParalogFamilies
	if k > cfg.NumGenes {
		k = cfg.NumGenes
	}
	for g := 0; g < k; g++ {
		b.Genes = append(b.Genes, DivergedCopy(b.Genes[g], cfg.ParalogDivergence, rng))
	}
	cfg.NumGenes = len(b.Genes)
	b.Config = cfg

	counts := allocateDepth(cfg, rng)
	for g, k := range counts {
		for i := 0; i < k; i++ {
			transcript := b.Genes[g].MRNA
			fromIso := false
			if b.Genes[g].SkippedIsoform != nil && rng.Intn(2) == 1 {
				transcript = b.Genes[g].SkippedIsoform
				fromIso = true
			}
			est, flipped := sampleEST(cfg, transcript, rng)
			b.ESTs = append(b.ESTs, est)
			b.Truth = append(b.Truth, int32(g))
			b.Flipped = append(b.Flipped, flipped)
			b.FromIsoform = append(b.FromIsoform, fromIso)
		}
	}
	// Shuffle emission order so gene members are interleaved, as in a
	// real EST archive.
	rng.Shuffle(len(b.ESTs), func(i, j int) {
		b.ESTs[i], b.ESTs[j] = b.ESTs[j], b.ESTs[i]
		b.Truth[i], b.Truth[j] = b.Truth[j], b.Truth[i]
		b.Flipped[i], b.Flipped[j] = b.Flipped[j], b.Flipped[i]
		b.FromIsoform[i], b.FromIsoform[j] = b.FromIsoform[j], b.FromIsoform[i]
	})
	return b, nil
}

// allocateDepth splits NumESTs over genes with Zipf-like weights, giving
// every gene at least one EST (leftovers notwithstanding).
func allocateDepth(cfg Config, rng *rand.Rand) []int {
	g := cfg.NumGenes
	weights := make([]float64, g)
	total := 0.0
	for i := range weights {
		weights[i] = 1.0 / math.Pow(float64(i+1), cfg.ExpressionSkew)
		total += weights[i]
	}
	// Random gene order so high-expression genes aren't always the
	// low-numbered ones.
	perm := rng.Perm(g)
	counts := make([]int, g)
	remaining := cfg.NumESTs
	// First give each gene one EST while supply lasts.
	for i := 0; i < g && remaining > 0; i++ {
		counts[i]++
		remaining--
	}
	for i := 0; i < remaining; i++ {
		r := rng.Float64() * total
		acc := 0.0
		pick := g - 1
		for j, w := range weights {
			acc += w
			if r < acc {
				pick = j
				break
			}
		}
		counts[perm[pick]]++
	}
	return counts
}

func randRange(rng *rand.Rand, r [2]int) int {
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

func randSeq(rng *rand.Rand, n int) seq.Sequence {
	s := make(seq.Sequence, n)
	for i := range s {
		s[i] = seq.Code(rng.Intn(seq.AlphabetSize))
	}
	return s
}

// synthesizeGene builds one gene: exons separated by introns, plus the
// spliced mRNA.
func synthesizeGene(cfg Config, rng *rand.Rand) Gene {
	nExons := randRange(rng, cfg.ExonsPerGene)
	var genomic, mrna seq.Sequence
	var bounds [][2]int
	for e := 0; e < nExons; e++ {
		if e > 0 {
			genomic = append(genomic, randSeq(rng, randRange(rng, cfg.IntronLen))...)
		}
		exon := randSeq(rng, randRange(rng, cfg.ExonLen))
		start := len(genomic)
		genomic = append(genomic, exon...)
		bounds = append(bounds, [2]int{start, len(genomic)})
		mrna = append(mrna, exon...)
	}
	// Guarantee the transcript can host a full-length read.
	for len(mrna) < cfg.MeanESTLen+2*cfg.SDESTLen {
		pad := randSeq(rng, cfg.ExonLen[0])
		mrna = append(mrna, pad...)
		start := len(genomic)
		genomic = append(genomic, pad...)
		bounds = append(bounds, [2]int{start, len(genomic)})
	}
	return Gene{Genomic: genomic, MRNA: mrna, ExonBounds: bounds}
}

// sampleEST draws one read from a transcript: a 3'-anchored cDNA fragment,
// read from its 5' or 3' end, error-perturbed, and possibly strand-flipped.
func sampleEST(cfg Config, mrna seq.Sequence, rng *rand.Rand) (est seq.Sequence, flipped bool) {
	// Fragment: oligo-dT priming anchors at the 3' end with a variable
	// 5' extent.
	minFrag := cfg.MinESTLen
	fragLen := minFrag + rng.Intn(len(mrna)-minFrag+1)
	frag := mrna[len(mrna)-fragLen:]

	readLen := int(float64(cfg.MeanESTLen) + rng.NormFloat64()*float64(cfg.SDESTLen))
	if readLen < cfg.MinESTLen {
		readLen = cfg.MinESTLen
	}
	if readLen > len(frag) {
		readLen = len(frag)
	}

	var raw seq.Sequence
	if rng.Intn(2) == 0 {
		// 5' read: prefix of the fragment.
		raw = frag[:readLen]
	} else {
		// 3' read: reverse complement of the fragment's tail.
		raw = frag[len(frag)-readLen:].ReverseComplement()
	}

	est = Mutate(raw, cfg.ErrorRate, rng)
	if rng.Float64() < cfg.RevCompProb {
		est = est.ReverseComplement()
		flipped = true
	}
	return est, flipped
}

// Mutate applies sequencing errors to s at the given total per-base rate
// (80% substitutions, 10% insertions, 10% deletions) and returns a new
// sequence. A rate of 0 returns an exact copy.
func Mutate(s seq.Sequence, rate float64, rng *rand.Rand) seq.Sequence {
	out := make(seq.Sequence, 0, len(s)+4)
	for _, c := range s {
		if rng.Float64() >= rate {
			out = append(out, c)
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.8: // substitution to a different base
			out = append(out, seq.Code((int(c)+1+rng.Intn(3))%seq.AlphabetSize))
		case r < 0.9: // insertion before this base
			out = append(out, seq.Code(rng.Intn(seq.AlphabetSize)), c)
		default: // deletion
		}
	}
	if len(out) == 0 {
		// Pathological high-rate corner: keep at least one base so the
		// EST remains valid input.
		out = append(out, s[0])
	}
	return out
}

// DivergedCopy returns a copy of a gene whose transcript has been mutated at
// the given rate — a paralog for gene-family scenarios. Its genomic sequence
// is regenerated trivially as the transcript itself (intron structure is
// irrelevant to paralog clustering stress tests).
func DivergedCopy(g Gene, rate float64, rng *rand.Rand) Gene {
	m := Mutate(g.MRNA, rate, rng)
	return Gene{Genomic: m.Clone(), MRNA: m, ExonBounds: [][2]int{{0, len(m)}}, SkippedExon: -1}
}
