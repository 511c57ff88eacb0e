package suffix

import (
	"fmt"
	"math"

	"pace/internal/seq"
)

// Buckets is the flat bucket table: every collected suffix in one slice,
// ordered by bucket, then string id, then position, with one offset per
// bucket. The (SID, Pos) order inside a bucket is the order a single
// ascending scan of the strings produces; every collector keeps it, and
// because the builder's partition is stable it fixes the node order of the
// bucket's subtree, so equal tables build byte-identical forests.
type Buckets struct {
	w    int
	refs []SuffixRef
	// sorted marks a table from NewSortedBuckets, whose buckets are in suffix
	// order with lcp[i] the saturated LCP of refs[i] with the suffix before it
	// in its bucket (sorted.go). A scan-order table has no lcp.
	sorted bool
	lcp    []uint8
	// off has NumBuckets(w)+1 entries; bucket b is refs[off[b]:off[b+1]].
	// int32 offsets cap one table at math.MaxInt32 suffixes.
	off []int32
	// next[b] is where Put writes bucket b's next suffix. Only a table from
	// NewSizedBuckets has it, and Seal drops it.
	next []int32
	// err is a failed CollectOwned's error, which BuildBuckets returns: the
	// collector has a single result.
	err error
}

// NewBuckets returns an empty table for window w, to be grown by Absorb.
func NewBuckets(w int) *Buckets {
	return &Buckets{w: w, off: make([]int32, NumBuckets(w)+1)}
}

// offsets lays out a table with size(b) suffixes in bucket b. A negative
// size, or the first bucket that takes the running total beyond
// math.MaxInt32, is an error naming the counts; sizes may come off the wire.
func offsets(nb int, size func(b int) int64) ([]int32, error) {
	off := make([]int32, nb+1)
	var total int64
	for b := 0; b < nb; b++ {
		n := size(b)
		if n < 0 {
			return nil, fmt.Errorf("suffix: bucket %d announced with %d suffixes", b, n)
		}
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

// Refs returns bucket b's suffixes in (SID, Pos) order, or suffix order if
// sorted: read-only, aliasing the table until the next Absorb or Truncate.
func (t *Buckets) Refs(b int) []SuffixRef {
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
	_, t.err = t.merge(set, owner, me, lo, hi)
	return t
}

// Absorb merges the suffixes of strings [lo,hi) into the table and returns,
// in ascending order, the ids of the buckets that received any. Every string
// already in the table must have an id below lo, so that in a scan-order
// table a bucket's fresh suffixes belong behind its old ones: a table grown
// batch by batch is then equal to one collected in a single scan. A sorted
// table merges them in on up to workers goroutines (absorbSorted).
func (t *Buckets) Absorb(set *seq.SetS, lo, hi seq.StringID, workers int) ([]int32, error) {
	if t.sorted {
		return t.absorbSorted(set, lo, hi, workers)
	}
	fresh, err := t.merge(set, nil, 0, lo, hi)
	if err != nil {
		return nil, err
	}
	return bucketsWhere(len(fresh), func(b int) bool { return fresh[b] > 0 }), nil
}

// merge is the two-scan counting sort behind CollectOwned and Absorb: scan 1
// counts the fresh suffixes of each bucket (owner == nil keeps every bucket),
// the new offsets follow by prefix sum, each bucket's old range is copied to
// its new place, and scan 2 drops every fresh suffix behind it. It returns
// the fresh counts. On error the table is unchanged.
//
// merge always counts for itself. The callers that hold the range's histogram
// already (rebuildShard, internal/baseline) so scan the strings a third time,
// an accepted 4 % of their collect + build (0.75 of 18 ms at 200 ESTs): the
// layout never rests on a caller's counts.
func (t *Buckets) merge(set *seq.SetS, owner []int32, me int32, lo, hi seq.StringID) ([]int64, error) {
	fresh := Histogram(set, t.w, lo, hi)
	if owner != nil {
		for b := range fresh {
			if owner[b] != me {
				fresh[b] = 0
			}
		}
	}
	nb := len(fresh)
	off, err := offsets(nb, func(b int) int64 { return int64(t.off[b+1]-t.off[b]) + fresh[b] })
	if err != nil {
		return nil, err
	}
	refs := make([]SuffixRef, off[nb])
	// From here off[b] is bucket b's write cursor: it starts behind the old
	// range and ends, after scan 2, at the start of bucket b+1.
	if len(t.refs) > 0 {
		for b := 0; b < nb; b++ {
			off[b] += int32(copy(refs[off[b]:], t.refs[t.off[b]:t.off[b+1]]))
		}
	}
	for id := lo; id < hi; id++ {
		BucketEach(set.Str(id), t.w, func(b int, pos int32) {
			if owner != nil && owner[b] != me {
				return
			}
			refs[off[b]] = SuffixRef{SID: id, Pos: pos}
			off[b]++
		})
	}
	copy(off[1:], off[:nb])
	off[0] = 0
	t.refs, t.off = refs, off
	return fresh, nil
}

// Truncate drops every suffix of strings with id >= hi — the inverse of the
// Absorb calls that brought them in — by a stable filter that compacts the
// kept suffixes to the front in place. In a sorted table a kept suffix's LCP
// with the kept one before it is the minimum of the LCPs from there to it;
// saturation commutes with min, so the bytes stay exact.
func (t *Buckets) Truncate(hi seq.StringID) {
	var w int32
	for b := 0; b+1 < len(t.off); b++ {
		lo, end := t.off[b], t.off[b+1]
		t.off[b] = w
		run := uint8(maxLCP)
		for i := lo; i < end; i++ {
			if t.sorted {
				run = min(run, t.lcp[i])
			}
			if t.refs[i].SID < hi {
				t.refs[w] = t.refs[i]
				if t.sorted {
					t.lcp[w], run = run, maxLCP
				}
				w++
			}
		}
	}
	t.off[len(t.off)-1] = w
	t.refs = t.refs[:w]
	if t.sorted {
		t.lcp = t.lcp[:w]
	}
}

// NewSizedBuckets returns a table laid out for hist[b] suffixes in every
// bucket owned by me and none elsewhere, to be filled by Put in arrival
// order and closed by Seal. This is the receiving side of the parallel
// redistribution: the global histogram fixes every offset before the first
// message arrives.
func NewSizedBuckets(w int, hist []int64, owner []int32, me int32) (*Buckets, error) {
	nb := NumBuckets(w)
	if len(hist) != nb || len(owner) != nb {
		return nil, fmt.Errorf("suffix: histogram of %d and assignment of %d buckets for window %d", len(hist), len(owner), w)
	}
	off, err := offsets(nb, func(b int) int64 {
		if owner[b] != me {
			return 0
		}
		return hist[b]
	})
	if err != nil {
		return nil, err
	}
	next := make([]int32, nb)
	copy(next, off)
	return &Buckets{w: w, refs: make([]SuffixRef, off[nb]), off: off, next: next}, nil
}

// Put appends r to bucket b of a sized table. It reports false, storing
// nothing, when b already holds every suffix it was sized for.
func (t *Buckets) Put(b int, r SuffixRef) bool {
	i := t.next[b]
	if i == t.off[b+1] {
		return false
	}
	t.refs[i] = r
	t.next[b] = i + 1
	return true
}

// Seal ends the filling of a sized table. A bucket still short of the size
// it was laid out for is an error: its unfilled slots are not suffixes.
func (t *Buckets) Seal() error {
	for b, i := range t.next {
		if i != t.off[b+1] {
			return fmt.Errorf("suffix: bucket %d received %d of %d suffixes", b, i-t.off[b], t.off[b+1]-t.off[b])
		}
	}
	t.next = nil
	return nil
}
