package align

import "pace/internal/seq"

// cell carries the dominant-path statistics for one DP state: the score of
// the best alignment ending in that state, its column/match counts, and —
// for free-end-gap alignment — which string's left boundary the path started
// on.
type cell struct {
	score   int32
	cols    int32
	matches int32
	leftA   bool
	leftB   bool
}

var deadCell = cell{score: negInf}

// better returns the cell with the higher score.
func better(a, b cell) cell {
	if a.score >= b.score {
		return a
	}
	return b
}

// stats extracts the Stats of a cell.
func (c cell) stats() Stats {
	return Stats{Score: c.score, Cols: c.cols, Matches: c.matches}
}

// subst scores one column aligning x against y.
func subst(sc Scoring, x, y seq.Code) (score int32, match bool) {
	if x == y {
		return sc.Match, true
	}
	return sc.Mismatch, false
}

// extendDiag applies a substitution column to a predecessor cell.
func extendDiag(p cell, sc Scoring, x, y seq.Code) cell {
	if p.score <= negInf {
		return deadCell
	}
	s, m := subst(sc, x, y)
	p.score += s
	p.cols++
	if m {
		p.matches++
	}
	return p
}

// extendGap applies one gap character, opening if fromOpen.
func extendGap(p cell, sc Scoring, open bool) cell {
	if p.score <= negInf {
		return deadCell
	}
	p.score += sc.GapExtend
	if open {
		p.score += sc.GapOpen
	}
	p.cols++
	return p
}

func betterOf3(a, b, c cell) cell {
	return better(a, better(b, c))
}

// OverlapResult is the outcome of a free-end-gap (overlap) alignment.
type OverlapResult struct {
	Stats
	Pattern Pattern
}

// Overlap computes the optimal overlap alignment of a and b: leading and
// trailing unaligned tails of either string are free. This realizes exactly
// the merge-evidence geometry of the paper's Figure 5b and is the reference
// against which the anchored banded extension path is validated; it is also
// the aligner used by the CAP3-style baseline.
func Overlap(a, b seq.Sequence, sc Scoring) OverlapResult {
	n, m := len(a), len(b)
	mPrev := make([]cell, m+1)
	mCur := make([]cell, m+1)
	xPrev := make([]cell, m+1)
	xCur := make([]cell, m+1)
	yPrev := make([]cell, m+1)
	yCur := make([]cell, m+1)

	// Free start anywhere on the top or left boundary. Starting at (0,j)
	// skips a prefix of b, so the alignment covers a's start: leftA.
	// Starting at (i,0) symmetrically marks leftB.
	mPrev[0] = cell{leftA: true, leftB: true}
	xPrev[0], yPrev[0] = deadCell, deadCell
	for j := 1; j <= m; j++ {
		mPrev[j] = cell{leftA: true}
		xPrev[j], yPrev[j] = deadCell, deadCell
	}

	best := deadCell
	bestRightA, bestRightB := false, false
	consider := func(c cell, rightA, rightB bool) {
		if c.score > best.score {
			best, bestRightA, bestRightB = c, rightA, rightB
		}
	}
	// The empty alignment — skipping one sequence entirely as a free
	// prefix and the other as a free suffix — is a valid overlap
	// alignment of score 0 and bounds the result from below (endpoints
	// (n,0) and (0,m), which the cell loop below never visits).
	consider(cell{leftB: true}, true, m == 0)
	consider(cell{leftA: true}, n == 0, true)

	for i := 1; i <= n; i++ {
		mCur[0] = cell{leftB: true}
		xCur[0], yCur[0] = deadCell, deadCell
		for j := 1; j <= m; j++ {
			mCur[j] = extendDiag(betterOf3(mPrev[j-1], xPrev[j-1], yPrev[j-1]), sc, a[i-1], b[j-1])
			xCur[j] = better(
				extendGap(better(mPrev[j], yPrev[j]), sc, true),
				extendGap(xPrev[j], sc, false))
			yCur[j] = better(
				extendGap(better(mCur[j-1], xCur[j-1]), sc, true),
				extendGap(yCur[j-1], sc, false))
			if i == n || j == m {
				consider(betterOf3(mCur[j], xCur[j], yCur[j]), i == n, j == m)
			}
		}
		mPrev, mCur = mCur, mPrev
		xPrev, xCur = xCur, xPrev
		yPrev, yCur = yCur, yPrev
	}
	// Degenerate empty inputs: the zero-extent alignment at the origin.
	if n == 0 || m == 0 {
		return OverlapResult{Pattern: classify(true, true, true, true)}
	}
	return OverlapResult{
		Stats:   best.stats(),
		Pattern: classify(best.leftA, best.leftB, bestRightA, bestRightB),
	}
}
