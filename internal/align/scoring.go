// Package align implements the pairwise alignment layer of the clustering
// pipeline. It provides reference dynamic-programming aligners (global,
// local, and overlap alignment with affine gap penalties) and, as the
// production path, the paper's anchored banded extension aligner (Figure 5):
// a maximal common substring match found by the suffix tree is extended at
// both ends with banded dynamic programming, and the result is accepted as
// cluster-merge evidence only when it realizes one of the four
// overlap/containment patterns with sufficient quality.
//
// All aligners score with affine gaps over three layers (M, X, Y). The
// reference aligners return a score with column and match counts, not an edit
// script, and work on rows of cell structs; the extension kernel
// (Extender.bandAlign) is the same recurrence on flat rows: per band slot three
// int32 scores and three path words (cols<<32 | matches), two rows cut from two
// allocations, each row's live slot range computed once with a dead sentinel
// after it so the inner loop tests no edge, and rows stopping where the band
// leaves the shorter string. Its contract is equality with the cell kernel it
// replaced (refBandAlign in the tests), tie-breaks included, so a Result never
// depends on which of the two computed it.
package align

import "fmt"

// Scoring holds alignment scores and penalties. Penalties are negative.
// Opening a gap of length g costs GapOpen + g*GapExtend.
type Scoring struct {
	Match     int32 // score for an identical column (> 0)
	Mismatch  int32 // score for a substitution column (< 0)
	GapOpen   int32 // one-time cost for starting a gap (<= 0)
	GapExtend int32 // per-character gap cost (< 0)
}

// DefaultScoring returns scores in the spirit of EST assembly tools:
// strong mismatch/gap penalties relative to match reward, which keeps
// accepted overlaps near-identity as the paper's clustering criteria demand.
func DefaultScoring() Scoring {
	return Scoring{Match: 2, Mismatch: -3, GapOpen: -4, GapExtend: -2}
}

// Validate reports whether the scoring scheme is sane.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: Match must be positive, got %d", s.Match)
	}
	if s.Mismatch >= 0 {
		return fmt.Errorf("align: Mismatch must be negative, got %d", s.Mismatch)
	}
	if s.GapOpen > 0 {
		return fmt.Errorf("align: GapOpen must be non-positive, got %d", s.GapOpen)
	}
	if s.GapExtend >= 0 {
		return fmt.Errorf("align: GapExtend must be negative, got %d", s.GapExtend)
	}
	return nil
}

// Stats summarizes one alignment: its score, the number of alignment columns
// (matches + mismatches + gap characters), and the number of match columns.
type Stats struct {
	Score   int32
	Cols    int32
	Matches int32
}

// Identity returns Matches/Cols, or 0 for an empty alignment.
func (st Stats) Identity() float64 {
	if st.Cols == 0 {
		return 0
	}
	return float64(st.Matches) / float64(st.Cols)
}

// ScoreRatio returns the paper's quality measure: the ratio of the attained
// score to the ideal score of an all-match alignment of the same column
// count. Empty alignments have ratio 0.
func (st Stats) ScoreRatio(sc Scoring) float64 {
	if st.Cols == 0 {
		return 0
	}
	return float64(st.Score) / float64(int64(sc.Match)*int64(st.Cols))
}

// add accumulates another segment's statistics.
func (st Stats) add(o Stats) Stats {
	return Stats{Score: st.Score + o.Score, Cols: st.Cols + o.Cols, Matches: st.Matches + o.Matches}
}

// Pattern is the overlap topology realized by an accepted alignment —
// the four merge-evidence shapes of the paper's Figure 5b.
type Pattern uint8

const (
	// PatternNone marks an alignment that realizes no merge-evidence shape.
	PatternNone Pattern = iota
	// ASuffixBPrefix: a suffix of A overlaps a prefix of B (A starts first).
	ASuffixBPrefix
	// BSuffixAPrefix: a suffix of B overlaps a prefix of A (B starts first).
	BSuffixAPrefix
	// AContainsB: B aligns entirely within A.
	AContainsB
	// BContainsA: A aligns entirely within B.
	BContainsA
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case ASuffixBPrefix:
		return "a-suffix/b-prefix"
	case BSuffixAPrefix:
		return "b-suffix/a-prefix"
	case AContainsB:
		return "a-contains-b"
	case BContainsA:
		return "b-contains-a"
	default:
		return "none"
	}
}

// classify derives the pattern from which string boundaries the alignment
// reached on each side. Containment takes precedence so that equal-extent
// alignments report containment rather than a degenerate overlap.
func classify(leftA, leftB, rightA, rightB bool) Pattern {
	switch {
	case leftB && rightB:
		return AContainsB
	case leftA && rightA:
		return BContainsA
	case leftB && rightA:
		return ASuffixBPrefix
	case leftA && rightB:
		return BSuffixAPrefix
	default:
		return PatternNone
	}
}

// Criteria is the acceptance rule applied to an extension result before it
// may merge two clusters.
type Criteria struct {
	// MinScoreRatio is the minimum Stats.ScoreRatio (paper's score/ideal
	// ratio). Typical values are 0.75–0.95.
	MinScoreRatio float64
	// MinIdentity is the minimum fraction of match columns.
	MinIdentity float64
	// MinOverlap is the minimum number of alignment columns; very short
	// overlaps are not merge evidence even if perfect.
	MinOverlap int32
}

// DefaultCriteria mirrors the conservative thresholds the paper tuned for the
// least false positives/negatives.
func DefaultCriteria() Criteria {
	return Criteria{MinScoreRatio: 0.70, MinIdentity: 0.90, MinOverlap: 40}
}

const negInf = int32(-1 << 29)
