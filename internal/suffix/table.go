package suffix

import (
	"fmt"
	"math"

	"pace/internal/fanout"
	"pace/internal/seq"
)

// Buckets is the flat bucket table: every collected suffix, as its int32
// position in the set's text, in one slice grouped by bucket, with one
// offset per bucket and one byte per suffix: five bytes per suffix.
// A bucket's front is in suffix order — its subtree's preorder leaves — with
// lcp[i] the saturated LCP of refs[i] with the suffix before it (0 for the
// first); behind it are the suffixes collected since, in position order, the
// order a single ascending scan of the strings produces, and there the
// byte is the suffix's look-ahead code: its first four characters past the
// window, two bits each, first highest, zero past its end. BuildBuckets
// orders them in, so every collector fills a table the same way and equal
// tables order into equal buckets.
type Buckets struct {
	w    int
	refs []int32
	lcp  []uint8
	// off has NumBuckets(w)+1 entries; bucket b is refs[off[b]:off[b+1]].
	// int32 offsets cap one table at math.MaxInt32 suffixes.
	off []int32
	// ordered[b] counts the suffixes at the front of bucket b that are in
	// suffix order.
	ordered []int32
	// err is a failed CollectOwned's error, which BuildBuckets returns: the
	// collector has a single result.
	err error
}

// NewBuckets returns an empty table for window w, to be grown by Absorb.
func NewBuckets(w int) *Buckets {
	nb := NumBuckets(w)
	return &Buckets{w: w, off: make([]int32, nb+1), ordered: make([]int32, nb)}
}

// offsets lays out a table with size(b) suffixes in bucket b. The first
// bucket that takes the running total beyond math.MaxInt32 is an error
// naming the counts.
func offsets(nb int, size func(b int) int64) ([]int32, error) {
	off := make([]int32, nb+1)
	var total int64
	for b := 0; b < nb; b++ {
		n := size(b)
		// Tested before the sum is formed, so no count can wrap it.
		if n > math.MaxInt32-total {
			return nil, fmt.Errorf("suffix: bucket %d's %d suffixes behind %d others exceed the %d one bucket table can index", b, n, total, math.MaxInt32)
		}
		total += n
		off[b+1] = int32(total)
	}
	return off, nil
}

// Len returns the number of suffixes in the table.
func (t *Buckets) Len() int { return len(t.refs) }

// Refs returns the positions of bucket b's suffixes, its ordered front
// first: read-only, aliasing the table until the next Absorb or Truncate.
func (t *Buckets) Refs(b int) []int32 {
	lo, hi := t.off[b], t.off[b+1]
	return t.refs[lo:hi:hi]
}

// bucketsWhere returns, in ascending order and in a slice of exactly their
// number, the ids b < nb for which keep(b) holds.
func bucketsWhere(nb int, keep func(b int) bool) []int32 {
	n := 0
	for b := 0; b < nb; b++ {
		if keep(b) {
			n++
		}
	}
	ids := make([]int32, 0, n)
	for b := 0; b < nb; b++ {
		if keep(b) {
			ids = append(ids, int32(b))
		}
	}
	return ids
}

// NonEmpty returns the ids of the buckets holding at least one suffix, in
// ascending order.
func (t *Buckets) NonEmpty() []int32 {
	return bucketsWhere(len(t.off)-1, func(b int) bool { return t.off[b] != t.off[b+1] })
}

// Histogram returns the per-bucket suffix counts.
func (t *Buckets) Histogram() []int64 {
	hist := make([]int64, len(t.off)-1)
	for b := range hist {
		hist[b] = int64(t.off[b+1] - t.off[b])
	}
	return hist
}

// CollectOwned scans the strings in [lo,hi) and gathers the suffixes whose
// bucket is owned by worker me into a flat table. Sequentially it is called
// once with the full string range; a survivor rebuilding a dead slave's shard
// calls it with an owner array masked down to the shard. A string set too
// large for one table yields an empty table whose error BuildBuckets (and so
// BuildForest) returns.
func CollectOwned(set *seq.SetS, w int, owner []int32, me int32, lo, hi seq.StringID) *Buckets {
	t := NewBuckets(w)
	t.err = t.merge(set, owner, me, lo, hi, 1)
	return t
}

// Absorb lays the suffixes of strings [lo,hi) out behind each bucket's
// suffixes on up to workers goroutines and returns, in ascending order, the
// ids of the buckets that received any: the ones BuildBuckets must order.
// Every string already in the table must have an id below lo, so that a
// bucket's new suffixes, in position order, are those a single scan would
// put behind its old ones.
func (t *Buckets) Absorb(set *seq.SetS, lo, hi seq.StringID, workers int) ([]int32, error) {
	old := t.off
	if err := t.merge(set, nil, 0, lo, hi, workers); err != nil {
		return nil, err
	}
	return grown(old, t.off), nil
}

// grown returns, in ascending order, the ids of the buckets that hold more
// suffixes under offsets off than under old.
func grown(old, off []int32) []int32 {
	return bucketsWhere(len(off)-1, func(b int) bool { return off[b+1]-off[b] > old[b+1]-old[b] })
}

// merge is the two-scan counting sort behind CollectOwned and Absorb, on up
// to workers goroutines. The strings [lo,hi) are cut into parts of
// near-equal length, and each part counts its suffixes per bucket (owner ==
// nil keeps every bucket). The new offsets follow by prefix sum, and each
// part gets a write cursor in every bucket, behind the bucket's old range
// and the earlier parts' suffixes. Then, concurrently, each part copies a
// share of the old ranges to their new places and drops its suffixes at its
// cursors. The parts are ascending string ranges, so every bucket ends in
// position order, the one-scan table, whatever the number of parts. On
// error the table is unchanged.
//
// merge always counts for itself. The callers that hold the range's histogram
// already (rebuildShard, internal/baseline) so scan the strings a third time,
// an accepted 4 % of their collect + build (0.75 of 18 ms at 200 ESTs): the
// layout never rests on a caller's counts.
func (t *Buckets) merge(set *seq.SetS, owner []int32, me int32, lo, hi seq.StringID, workers int) error {
	nb := NumBuckets(t.w)
	cuts := t.mergeCuts(set, lo, hi, workers)
	parts := max(1, len(cuts)-1)
	// cur[k*nb+b] is part k's count in bucket b, then its write cursor there.
	// One part is called inline, so that it allocates no closure.
	cur := make([]int32, parts*nb)
	var err error
	if parts == 1 {
		err = t.count(set, owner, me, lo, hi, cur)
	} else {
		err = fanout.Run(parts, func(k int) error {
			return t.count(set, owner, me, lo+seq.StringID(cuts[k]), lo+seq.StringID(cuts[k+1]), cur[k*nb:(k+1)*nb])
		})
	}
	if err != nil {
		return err
	}
	off, err := offsets(nb, func(b int) int64 {
		n := int64(t.off[b+1] - t.off[b])
		for k := b; k < len(cur); k += nb {
			n += int64(cur[k])
		}
		return n
	})
	if err != nil {
		return err
	}
	for b := 0; b < nb; b++ {
		at := off[b] + t.off[b+1] - t.off[b]
		for k := b; k < len(cur); k += nb {
			at, cur[k] = at+cur[k], at
		}
	}
	refs, lcp := make([]int32, off[nb]), make([]uint8, off[nb])
	if parts == 1 {
		t.copyOld(refs, lcp, off, 0, nb)
		t.scatter(set, owner, me, lo, hi, cur, refs, lcp)
	} else {
		_ = fanout.Run(parts, func(k int) error {
			t.copyOld(refs, lcp, off, k*nb/parts, (k+1)*nb/parts)
			t.scatter(set, owner, me, lo+seq.StringID(cuts[k]), lo+seq.StringID(cuts[k+1]), cur[k*nb:(k+1)*nb], refs, lcp)
			return nil
		})
	}
	t.refs, t.lcp, t.off = refs, lcp, off
	return nil
}

// mergeCuts cuts strings [lo,hi) into at most workers parts of near-equal
// length for merge, or returns nil for one part. Each part takes a write
// cursor in all 4^w buckets, so the parts are also capped at the number
// whose cursors do not outnumber the suffixes of the table being laid out:
// the table's and those of the strings (an upper bound under an owner mask).
func (t *Buckets) mergeCuts(set *seq.SetS, lo, hi seq.StringID, workers int) []int {
	if workers <= 1 || hi-lo <= 1 {
		return nil
	}
	n := int64(len(t.refs))
	for id := lo; id < hi; id++ {
		n += int64(max(0, len(set.Str(id))-t.w+1))
	}
	if workers = int(min(int64(workers), n/int64(NumBuckets(t.w)))); workers <= 1 {
		return nil
	}
	return fanout.Cuts(int(hi-lo), workers, func(i int) int { return len(set.Str(lo + seq.StringID(i))) })
}

// count adds to c[b] the number of suffixes of strings [lo,hi) in each
// bucket b owned by me (owner == nil owns all). It fails once they are more
// than a table can index, checked string by string so that no count wraps
// first.
func (t *Buckets) count(set *seq.SetS, owner []int32, me int32, lo, hi seq.StringID, c []int32) error {
	var n int64
	for id := lo; id < hi; id++ {
		BucketEach(set.Str(id), t.w, func(b int, _ int32) {
			if owner == nil || owner[b] == me {
				c[b]++
				n++
			}
		})
		if n > math.MaxInt32 {
			return fmt.Errorf("suffix: strings %d to %d hold %d suffixes, more than the %d one bucket table can index", lo, id, n, math.MaxInt32)
		}
	}
	return nil
}

// scatter writes the positions of the suffixes of strings [lo,hi) in the
// buckets owned by me into refs at the cursors c, advancing them, and each
// one's look-ahead code into lcp. A register of the last w+4 characters
// read holds the bucket and the code of the suffix that starts w+4
// characters back.
func (t *Buckets) scatter(set *seq.SetS, owner []int32, me int32, lo, hi seq.StringID, c []int32, refs []int32, lcp []uint8) {
	mask := uint64(NumBuckets(t.w))<<8 - 1
	for id := lo; id < hi; id++ {
		s, reg, at := set.Str(id), uint64(0), set.Start(id)-int32(t.w)-3
		for i := 0; i < len(s)+4; i++ {
			reg = roll(reg, s, i, mask)
			if pos, b := i-t.w-3, int(reg>>8); pos >= 0 && (owner == nil || owner[b] == me) {
				refs[c[b]], lcp[c[b]] = at+int32(i), uint8(reg)
				c[b]++
			}
		}
	}
}

// roll shifts s[i], or a zero past the end of s, into reg, under mask.
func roll(reg uint64, s seq.Sequence, i int, mask uint64) uint64 {
	var c uint64
	if i < len(s) {
		c = uint64(s[i])
	}
	return (reg<<2 | c) & mask
}

// copyOld copies the table's buckets [from,to) and their bytes, codes
// included, into refs and lcp, laid out by off, each to its new range's front.
func (t *Buckets) copyOld(refs []int32, lcp []uint8, off []int32, from, to int) {
	if len(t.refs) == 0 {
		return
	}
	for b := from; b < to; b++ {
		copy(refs[off[b]:], t.refs[t.off[b]:t.off[b+1]])
		copy(lcp[off[b]:], t.lcp[t.off[b]:t.off[b+1]])
	}
}

// Truncate drops every suffix at position cut or beyond — with cut the
// Start of string hi, those of strings hi and later: the inverse of the
// Absorb calls that brought them in, whether or not BuildBuckets has ordered
// them since — by a stable filter that compacts the kept suffixes to the
// front in place. In a bucket's ordered front a kept suffix's LCP with the
// kept one before it is the minimum of the LCPs from there to it;
// saturation commutes with min, so the bytes stay exact. Behind the front a
// kept suffix keeps its byte, its look-ahead code, as it is.
func (t *Buckets) Truncate(cut int32) {
	var w int32
	for b := 0; b+1 < len(t.off); b++ {
		lo, mid, end := t.off[b], t.off[b]+t.ordered[b], t.off[b+1]
		t.off[b] = w
		run := uint8(MaxLCP)
		for i := lo; i < end; i++ {
			if i == mid {
				t.ordered[b] = w - t.off[b]
			}
			if run = min(run, t.lcp[i]); i >= mid {
				run = t.lcp[i]
			}
			if t.refs[i] < cut {
				t.refs[w], t.lcp[w], run = t.refs[i], run, MaxLCP
				w++
			}
		}
		if mid == end {
			t.ordered[b] = w - t.off[b]
		}
	}
	t.off[len(t.off)-1] = w
	t.refs, t.lcp = t.refs[:w], t.lcp[:w]
}
