package suffix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pace/internal/fanout"
	"pace/internal/seq"
	"pace/internal/testutil"
)

// mergeOneScan is the one-goroutine merge the part-wise one replaced, kept
// verbatim as its oracle (TestPartitionWorkerCounts): scan 1 counts the
// fresh suffixes of each bucket (owner == nil keeps every bucket), the new
// offsets follow by prefix sum, each bucket's old range is copied to its new
// place, and scan 2 drops every fresh suffix behind it. It returns the fresh
// counts. On error the table is unchanged.
func (t *Buckets) mergeOneScan(set *seq.SetS, owner []int32, me int32, lo, hi seq.StringID) ([]int64, error) {
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
	refs := make([]int32, off[nb])
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
			refs[off[b]] = set.Start(id) + pos
			off[b]++
		})
	}
	copy(off[1:], off[:nb])
	off[0] = 0
	t.refs, t.lcp, t.off = refs, make([]uint8, len(refs)), off
	return fresh, nil
}

// The part-wise merge gives the one-scan oracle's table at every worker
// count, batch by batch: the same refs and offsets as laid out, and, with
// each batch's buckets ordered, the same refs, offsets and LCP bytes as at
// one worker, where each bucket is in preorder with exact saturated LCPs.
// With an owner mask it keeps exactly the owned buckets. The leak guard
// holds every part to exiting.
func TestPartitionWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, shape := range []int{shapeRandom, shapeDuplicates, shapeShort, shapePolyA, shapeDeep} {
		set := diffSet(t, 43, 14, shape)
		n2 := seq.StringID(set.NumStrings())
		for _, w := range []int{1, 3, 5} {
			splits := prefixSplits(int(n2))
			for _, name := range []string{"50-25-25", "tail-by-one"} {
				cuts := splits[name]
				want := NewBuckets(w)
				one := NewBuckets(w)
				scans := make([]*Buckets, len(workerCounts))
				sorts := make([]*Buckets, len(workerCounts))
				for i := range scans {
					scans[i], sorts[i] = NewBuckets(w), NewBuckets(w)
				}
				lo := seq.StringID(0)
				for _, hi := range cuts {
					old := want.off
					if _, err := want.mergeOneScan(set, nil, 0, lo, hi); err != nil {
						t.Fatal(err)
					}
					ids := grown(old, want.off)
					if got, err := one.Absorb(set, lo, hi, 1); err != nil || fmt.Sprint(got) != fmt.Sprint(ids) {
						t.Fatalf("one worker: touched %v, want %v (err %v)", got, ids, err)
					}
					if _, err := BuildBuckets(set, one, ids, 1); err != nil {
						t.Fatal(err)
					}
					requireSortedTable(t, set, fmt.Sprintf("shape %d w %d split %s at %d, one worker", shape, w, name, hi), one, want)
					for i, workers := range workerCounts {
						what := fmt.Sprintf("shape %d w %d split %s at %d, %d workers", shape, w, name, hi, workers)
						got, err := scans[i].Absorb(set, lo, hi, workers)
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(got) != fmt.Sprint(ids) {
							t.Fatalf("%s: touched %v, want %v", what, got, ids)
						}
						requireSameTable(t, what, scans[i], want)
						if got, err = sorts[i].Absorb(set, lo, hi, workers); err != nil {
							t.Fatal(err)
						}
						if _, err := BuildBuckets(set, sorts[i], got, workers); err != nil {
							t.Fatal(err)
						}
						requireSameTable(t, what+", ordered", sorts[i], one)
						if string(sorts[i].lcp) != string(one.lcp) {
							t.Fatalf("%s: ordered table's LCPs differ from one worker's", what)
						}
					}
					lo = hi
				}
			}
			// An owner mask: three owners over the whole range at once.
			owner := Assign(Histogram(set, w, 0, n2), 3)
			for me := int32(0); me < 3; me++ {
				want := NewBuckets(w)
				if _, err := want.mergeOneScan(set, owner, me, 0, n2); err != nil {
					t.Fatal(err)
				}
				for _, workers := range workerCounts {
					got := NewBuckets(w)
					if err := got.merge(set, owner, me, 0, n2, workers); err != nil {
						t.Fatal(err)
					}
					requireSameTable(t, fmt.Sprintf("shape %d w %d owner %d, %d workers", shape, w, me, workers), got, want)
				}
			}
		}
	}
}

// Each of merge's parts takes a write cursor in all 4^w buckets, so a fill
// gets no more parts than the table it lays out, held and new suffixes
// together, has suffixes per 4^w: one for a few ESTs at MaxWindow, whatever
// the workers, and at w = 8 every worker on a table of eight times 65,536
// suffixes or more. The cap counts the held suffixes too.
func TestMergePartsCappedByTableSize(t *testing.T) {
	few := diffSet(t, 5, 6, shapeRandom)
	if cuts := NewBuckets(MaxWindow).mergeCuts(few, 0, seq.StringID(few.NumStrings()), 8); cuts != nil {
		t.Errorf("%d strings at MaxWindow: cuts %v, want one part", few.NumStrings(), cuts)
	}

	rng := rand.New(rand.NewSource(1))
	ests := make([]seq.Sequence, 8)
	for i := range ests {
		ests[i] = make(seq.Sequence, 40000)
		for j := range ests[i] {
			ests[i][j] = seq.Code(rng.Intn(seq.AlphabetSize))
		}
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	n2 := seq.StringID(set.NumStrings())
	const w = 8
	if got, want := NewBuckets(w).mergeCuts(set, 0, n2, 8), fanout.Cuts(int(n2), 8, func(i int) int { return len(set.Str(seq.StringID(i))) }); !slices.Equal(got, want) {
		t.Errorf("%d strings at w %d: cuts %v, want every worker's %v", n2, w, got, want)
	}
	// The last two strings alone, 79,986 suffixes, get one part; behind the
	// 559,902 the table holds they get two.
	held := NewBuckets(w)
	if _, err := held.Absorb(set, 0, n2-2, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := NewBuckets(w).mergeCuts(set, n2-2, n2, 8), []int(nil); !slices.Equal(got, want) {
		t.Errorf("two strings into an empty table: cuts %v, want one part", got)
	}
	if got, want := held.mergeCuts(set, n2-2, n2, 8), []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("two strings behind %d suffixes: cuts %v, want two parts %v", held.Len(), got, want)
	}
}
