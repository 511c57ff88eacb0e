package align

// The two-row []cell band kernel the flat score lanes replaced, kept verbatim
// (receiver renamed refExtender) as the differential oracle:
// TestBandAlignMatchesReference and FuzzExtendMatchesReference require the
// production kernel to return the same cell and boundary flags, and Extend the
// same Result field for field, on every input.

import (
	"fmt"

	"pace/internal/seq"
)

// refExtender is the oracle's scratch: three two-row matrices of cells.
type refExtender struct {
	sc    Scoring
	band  int
	width int

	revA, revB []seq.Code

	mPrev, mCur []cell
	xPrev, xCur []cell
	yPrev, yCur []cell
}

func newRefExtender(sc Scoring, band int) *refExtender {
	w := 2*band + 1
	e := &refExtender{sc: sc, band: band, width: w}
	e.mPrev = make([]cell, w)
	e.mCur = make([]cell, w)
	e.xPrev = make([]cell, w)
	e.xCur = make([]cell, w)
	e.yPrev = make([]cell, w)
	e.yCur = make([]cell, w)
	return e
}

// Extend is Extend around refBandAlign: the same range check, anchor and
// reversal, so that a Result differs only if the kernels do.
func (e *refExtender) Extend(a, b seq.Sequence, posA, posB, anchorLen int32) (Result, error) {
	if anchorLen < 0 || posA < 0 || posB < 0 ||
		int(posA)+int(anchorLen) > len(a) || int(posB)+int(anchorLen) > len(b) {
		return Result{}, fmt.Errorf("align: anchor (%d,%d,+%d) out of range for lengths %d,%d",
			posA, posB, anchorLen, len(a), len(b))
	}
	anchor := Stats{
		Score:   anchorLen * e.sc.Match,
		Cols:    anchorLen,
		Matches: anchorLen,
	}

	right, rightA, rightB := e.refBandAlign(a[posA+anchorLen:], b[posB+anchorLen:])

	e.revA = reverseInto(e.revA[:0], a[:posA])
	e.revB = reverseInto(e.revB[:0], b[:posB])
	left, leftA, leftB := e.refBandAlign(e.revA, e.revB)

	res := Result{
		Stats:     anchor.add(right.stats()).add(left.stats()),
		LeftA:     leftA,
		LeftB:     leftB,
		RightA:    rightA,
		RightB:    rightB,
		AnchorLen: anchorLen,
	}
	res.Pattern = classify(leftA, leftB, rightA, rightB)
	return res, nil
}

// refBandAlign computes the best banded alignment of a prefix of a with a
// prefix of b such that at least one of the two is consumed entirely
// (the other's tail dangles free past the string boundary). It returns the
// dominant-path cell plus which inputs were exhausted at the chosen endpoint.
func (e *refExtender) refBandAlign(a, b []seq.Code) (best cell, aEx, bEx bool) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return cell{}, n == 0, m == 0
	}
	bd, w := e.band, e.width
	mPrev, mCur := e.mPrev, e.mCur
	xPrev, xCur := e.xPrev, e.xCur
	yPrev, yCur := e.yPrev, e.yCur

	best = deadCell
	consider := func(c cell, ea, eb bool) {
		if c.score > best.score {
			best, aEx, bEx = c, ea, eb
		}
	}

	// Row 0: j = k - bd.
	for k := 0; k < w; k++ {
		j := k - bd
		mPrev[k], xPrev[k], yPrev[k] = deadCell, deadCell, deadCell
		switch {
		case j < 0 || j > m:
			// outside
		case j == 0:
			mPrev[k] = cell{}
		default:
			yPrev[k] = better(
				extendGap(better(mPrev[k-1], xPrev[k-1]), e.sc, true),
				extendGap(yPrev[k-1], e.sc, false))
			if j == m {
				consider(yPrev[k], false, true)
			}
		}
	}

	for i := 1; i <= n; i++ {
		for k := 0; k < w; k++ {
			j := i - bd + k
			if j < 0 || j > m {
				mCur[k], xCur[k], yCur[k] = deadCell, deadCell, deadCell
				continue
			}
			// Diagonal predecessor (i-1, j-1) sits at the same k in
			// the previous row; the vertical predecessor (i-1, j) at
			// k+1; the horizontal predecessor (i, j-1) at k-1.
			if j == 0 {
				mCur[k], yCur[k] = deadCell, deadCell
			} else {
				mCur[k] = extendDiag(betterOf3(mPrev[k], xPrev[k], yPrev[k]), e.sc, a[i-1], b[j-1])
				if k > 0 {
					yCur[k] = better(
						extendGap(better(mCur[k-1], xCur[k-1]), e.sc, true),
						extendGap(yCur[k-1], e.sc, false))
				} else {
					yCur[k] = deadCell
				}
			}
			if k+1 < w {
				xCur[k] = better(
					extendGap(better(mPrev[k+1], yPrev[k+1]), e.sc, true),
					extendGap(xPrev[k+1], e.sc, false))
			} else {
				xCur[k] = deadCell
			}
			if i == n || j == m {
				consider(betterOf3(mCur[k], xCur[k], yCur[k]), i == n, j == m)
			}
		}
		mPrev, mCur = mCur, mPrev
		xPrev, xCur = xCur, xPrev
		yPrev, yCur = yCur, yPrev
	}
	return best, aEx, bEx
}
