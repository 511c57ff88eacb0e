package align

import (
	"fmt"

	"pace/internal/seq"
)

// Result is the outcome of an anchored banded extension: the combined
// statistics of left extension + anchor + right extension, the boundary
// flags of each side (which string's end the extension reached), and the
// overlap pattern they imply.
type Result struct {
	Stats
	Pattern Pattern
	// LeftA/LeftB report whether the left extension reached the start of
	// a/b; RightA/RightB whether the right extension reached the end.
	LeftA, LeftB, RightA, RightB bool
	// AnchorLen is the maximal-common-substring length the alignment was
	// anchored on.
	AnchorLen int32
}

// Accept applies the acceptance rule: the alignment must realize one of the
// four merge-evidence patterns and clear every quality threshold.
func (r Result) Accept(sc Scoring, cr Criteria) bool {
	return r.Pattern != PatternNone &&
		r.Cols >= cr.MinOverlap &&
		r.Identity() >= cr.MinIdentity &&
		r.ScoreRatio(sc) >= cr.MinScoreRatio
}

// Extender performs anchored banded extensions (the paper's Figure 5a).
// Instead of aligning two whole ESTs, the maximal common substring match
// already located by the suffix tree is extended at both ends with dynamic
// programming restricted to a diagonal band whose width reflects the number
// of sequencing errors tolerated. An Extender's scratch buffers are reused
// across calls; it is not safe for concurrent use — each worker owns one.
type Extender struct {
	sc   Scoring
	band int

	revA, revB []seq.Code

	// prev and cur are the two DP rows bandAlign rolls over, cut from one
	// []scores and one []paths allocation.
	prev, cur bandRow
}

// bandRow is one row of the banded DP, 2*band+2 slots long. Slot s of row i is
// column j = i - band + s, so the diagonal predecessor sits at the same slot
// of the previous row, the vertical one at s+1 and the horizontal one at s-1
// of the same row; the last slot is never a column and exists so that the
// dead sentinel after a full-width row has a slot.
type bandRow struct {
	s []scores
	p []paths
}

// scores holds one slot's score in each affine layer: M (the alignment so far
// ends in a substitution column), X (in a gap that consumed a's character), Y
// (in a gap that consumed b's).
type scores struct{ m, x, y int32 }

// paths holds cols<<32 | matches of the dominant path into each layer of one
// slot.
type paths struct{ m, x, y uint64 }

// pathCol is one alignment column in a path word; a match column adds
// pathCol | 1.
const pathCol = uint64(1) << 32

var deadScores = scores{negInf, negInf, negInf}

// NewExtender creates an Extender with the given scoring and band half-width
// (the alignment explores diagonals within ±band of the anchor diagonal).
func NewExtender(sc Scoring, band int) (*Extender, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if band < 1 {
		return nil, fmt.Errorf("align: band must be >= 1, got %d", band)
	}
	n := 2*band + 2
	s, p := make([]scores, 2*n), make([]paths, 2*n)
	return &Extender{
		sc: sc, band: band,
		prev: bandRow{s[:n:n], p[:n:n]},
		cur:  bandRow{s[n:], p[n:]},
	}, nil
}

// Extend aligns a and b by extending the exact match
// a[posA:posA+anchorLen] == b[posB:posB+anchorLen] at both ends.
// The caller guarantees the anchor is a genuine common substring; positions
// are validated, anchor content is not (it comes from the suffix tree).
func (e *Extender) Extend(a, b seq.Sequence, posA, posB, anchorLen int32) (Result, error) {
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

	right, rightA, rightB := e.bandAlign(a[posA+anchorLen:], b[posB+anchorLen:])

	e.revA = reverseInto(e.revA[:0], a[:posA])
	e.revB = reverseInto(e.revB[:0], b[:posB])
	left, leftA, leftB := e.bandAlign(e.revA, e.revB)

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

func reverseInto(dst, src []seq.Code) []seq.Code {
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}

// bandAlign computes the best banded alignment of a prefix of a with a
// prefix of b such that at least one of the two is consumed entirely
// (the other's tail dangles free past the string boundary). It returns the
// dominant-path cell plus which inputs were exhausted at the chosen endpoint.
//
// The recurrence and every tie-break are the cell kernel's (refBandAlign in
// the tests): into a diagonal step M beats X beats Y; a gap opened from the
// better of the two other layers (M first) beats a gap extended on equal
// score; a dead state (score <= negInf) never revives and never wins; among
// equal-score endpoints the first in scan order wins.
func (e *Extender) bandAlign(a, b []seq.Code) (best cell, aEx, bEx bool) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return cell{}, n == 0, m == 0
	}
	bd := e.band
	prev, cur := e.prev, e.cur
	bestScore, bestPath := negInf, uint64(0)

	// Past row m+band every column of the band lies beyond b.
	last := min(n, m+bd)
	for i := 0; i <= last; i++ {
		// The row's live slots [lo, hi] are its columns 0 <= j <= m.
		lo, hi := max(bd-i, 0), 2*bd
		endB := m-i+bd <= hi // slot hi is column m
		if endB {
			hi = m - i + bd
		}
		if i == 0 {
			e.firstRow(cur, lo, hi)
		} else {
			e.fillRow(prev, cur, lo, hi, i <= bd, a[i-1], b[max(i-bd-1, 0):])
		}

		// Endpoints: all of row n, and column m of every row.
		from := hi + 1
		if i == n {
			from = lo
		} else if endB {
			from = hi
		}
		for s := from; s <= hi; s++ {
			sc, p := cur.best(s)
			if sc > bestScore {
				bestScore, bestPath = sc, p
				aEx, bEx = i == n, endB && s == hi
			}
		}
		prev, cur = cur, prev
	}
	return cell{score: bestScore, cols: int32(bestPath >> 32), matches: int32(uint32(bestPath))}, aEx, bEx
}

// firstRow writes row 0: the origin in M, then a gap in b's favour opened at
// the origin and extended as far as the band and b reach.
func (e *Extender) firstRow(r bandRow, lo, hi int) {
	r.s[lo] = scores{0, negInf, negInf}
	r.p[lo].m = 0
	y, py := e.sc.GapOpen+e.sc.GapExtend, pathCol
	for s := lo + 1; s <= hi; s++ {
		r.s[s] = scores{negInf, negInf, y}
		r.p[s].y = py
		if y > negInf {
			y += e.sc.GapExtend
		}
		py += pathCol
	}
	r.s[hi+1] = deadScores
}

// fillRow computes a row i >= 1 over its live slots [lo, hi] from the row
// above. Column 0, when the row holds it (col0), is peeled; the horizontal
// step into the first column after it starts from a dead local; and the slot
// after hi gets a dead sentinel for the next row's vertical step — so the loop
// tests for neither the band's nor the strings' edge. ai is a[i-1]; b starts
// at the character of the row's first column j >= 1.
func (e *Extender) fillRow(prev, cur bandRow, lo, hi int, col0 bool, ai seq.Code, b []seq.Code) {
	match, mismatch := e.sc.Match, e.sc.Mismatch
	ext, open := e.sc.GapExtend, e.sc.GapOpen+e.sc.GapExtend

	// c is this row's slot to the left, s-1.
	c, pc := deadScores, paths{}
	if col0 {
		// Column 0 is reached only by a gap down a's side.
		v, pv := prev.s[lo+1], prev.p[lo+1]
		o, po := dominant(v.m, pv.m, v.y, pv.y)
		c.x, pc.x = gap(o, po, v.x, pv.x, open, ext)
		cur.s[lo], cur.p[lo] = c, pc
		lo++
	}
	cs, cp := cur.s[lo:hi+1], cur.p[lo:hi+1]
	ds, dp := prev.s[lo:hi+1], prev.p[lo:hi+1]
	vs, vp := prev.s[lo+1:hi+2], prev.p[lo+1:hi+2]
	b = b[:len(cs)]
	for t := range cs {
		// M: a substitution column after the best state diagonally above.
		d, pd := ds[t], dp[t]
		m, pm := dominant(d.x, pd.x, d.y, pd.y)
		m, pm = dominant(d.m, pd.m, m, pm)
		sub, col := mismatch, pathCol
		if ai == b[t] {
			sub, col = match, pathCol|1
		}
		if m > negInf {
			m += sub
		}
		pm += col
		// X: a gap column consuming a[i-1], after the state above.
		v, pv := vs[t], vp[t]
		o, po := dominant(v.m, pv.m, v.y, pv.y)
		x, px := gap(o, po, v.x, pv.x, open, ext)
		// Y: a gap column consuming b[j-1], after the state to the left.
		o, po = dominant(c.m, pc.m, c.x, pc.x)
		y, py := gap(o, po, c.y, pc.y, open, ext)

		c, pc = scores{m, x, y}, paths{pm, px, py}
		cs[t], cp[t] = c, pc
	}
	cur.s[hi+1] = deadScores
}

// dominant returns the higher-scoring of two states, the first on ties.
func dominant(a int32, pa uint64, b int32, pb uint64) (int32, uint64) {
	if a >= b {
		b, pb = a, pa
	}
	return b, pb
}

// gap appends one gap column: opened after state o (the better of the two
// other layers) or extended after state g of the gap's own layer, opening on
// ties. A dead state stays dead.
func gap(o int32, po uint64, g int32, pg uint64, open, ext int32) (int32, uint64) {
	if o > negInf {
		o += open
	}
	if g > negInf {
		g += ext
	}
	if o >= g {
		g, pg = o, po
	}
	return g, pg + pathCol
}

// best returns the dominant state of slot s: M, then X, then Y on ties.
func (r bandRow) best(s int) (int32, uint64) {
	v, pv := r.s[s], r.p[s]
	sc, p := dominant(v.x, pv.x, v.y, pv.y)
	return dominant(v.m, pv.m, sc, p)
}
