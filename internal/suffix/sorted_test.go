package suffix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// treeOf returns bucket b of table as a tree, without ordering it.
func treeOf(set *seq.SetS, table *Buckets, b int) *Tree {
	return &Tree{Bucket: b, table: table, set: set}
}

// requireSortedTable fails unless the sorted table holds the scan-order
// table's buckets, each wholly ordered as its reference tree's preorder
// leaves with every LCP byte min(MaxLCP, the true LCP with the suffix
// before it).
func requireSortedTable(t testing.TB, set *seq.SetS, what string, sorted, scan *Buckets) {
	t.Helper()
	if !slices.Equal(sorted.off, scan.off) || len(sorted.lcp) != len(sorted.refs) {
		t.Fatalf("%s: %d suffixes and %d LCPs in %d buckets, want %d suffixes in %d, or other offsets", what, len(sorted.refs), len(sorted.lcp), len(sorted.off)-1, len(scan.refs), len(scan.off)-1)
	}
	for _, b := range scan.NonEmpty() {
		if n := len(sorted.Refs(int(b))); int(sorted.ordered[b]) != n {
			t.Fatalf("%s: bucket %d has %d of %d suffixes ordered", what, b, sorted.ordered[b], n)
		}
		want, err := refBuild(set, int(b), refsAt(set, scan.Refs(int(b))), scan.w)
		if err != nil {
			t.Fatal(err)
		}
		requireSameForest(t, set, what, []*Tree{treeOf(set, sorted, int(b))}, []*nodeTree{want})
	}
}

// checkSortedMatchesScan grows a table batch by batch over one input, for
// every split of the incremental-equivalence suite, ordering the touched
// buckets after every Absorb as a run does, and requires the touched trees
// to be the oracle's over the prefix and the table to be the scan-order
// table's buckets as their trees' preorder leaves with exact saturated
// LCPs.
func checkSortedMatchesScan(t testing.TB, seed int64, n, w, shape int) {
	t.Helper()
	set := diffSet(t, seed, n, shape)
	nb := NumBuckets(w)
	for name, cuts := range prefixSplits(set.NumStrings()) {
		sorted, scan := NewBuckets(w), NewBuckets(w)
		lo := seq.StringID(0)
		for _, hi := range cuts {
			touched, err := sorted.Absorb(set, lo, hi, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scan.Absorb(set, lo, hi, 1)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(touched) != fmt.Sprint(want) {
				t.Fatalf("split %s at %d: sorted table touched %v, scan-order %v", name, hi, touched, want)
			}
			what := fmt.Sprintf("seed %d n %d w %d shape %d split %s at %d", seed, n, w, shape, name, hi)
			got, err := BuildBuckets(set, sorted, touched, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, set, what, got, refForest(t, set, w, maskTo(nb, touched), 0, hi))
			requireSortedTable(t, set, what, sorted, scan)
			lo = hi
		}
	}
}

// TestSortedTableBuildsTheSameForest is the batch-by-batch table's
// differential oracle: every touched bucket, merged into what earlier
// batches ordered, equals the reference tree's preorder leaves, over
// TestBuildMatchesReference's random, duplicate-heavy, one-letter, deep and
// shorter-than-w inputs.
func TestSortedTableBuildsTheSameForest(t *testing.T) {
	for _, shape := range []int{shapeRandom, shapeDuplicates, shapeOneLetter, shapeDeep, shapeShort} {
		for _, w := range []int{1, 4, 8} {
			for seed := int64(1); seed <= 4; seed++ {
				checkSortedMatchesScan(t, seed, 3+int(seed)*3, w, shape)
			}
		}
	}
}

// FuzzSortedAbsorbMatchesScan's pinned seeds run in plain `go test` too; CI's
// fuzz-smoke job runs it beyond them.
func FuzzSortedAbsorbMatchesScan(f *testing.F) {
	for _, s := range []buildSeed{
		{1, 4, 1, shapeRandom},
		{2, 12, 4, shapeDuplicates},
		{3, 9, 8, shapeOneLetter},
		{4, 20, 3, shapeShort},
		{5, 1, 2, shapeDuplicates},
		{6, 16, 8, shapeDeep},
		{7, 10, 5, shapePolyA},
	} {
		f.Add(s.seed, s.n, s.w, s.sh)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w, shape uint8) {
		checkSortedMatchesScan(t, seed, 1+int(n%32), 1+int(w%8), int(shape%numShapes))
	})
}

// saturatedSet returns a three-generation set whose reads share runs of
// MaxLCP bases and more: copies of one 600-base read, reads cut from it at
// offsets so that they overlap it by 255 to 600 bases, reads that copy it
// with one substitution near position 255 (LCPs of exactly 254, 255 and
// 256), and reads ending in 300-base poly(A) tails.
func saturatedSet(t testing.TB) *seq.SetS {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	base := make(seq.Sequence, 600)
	for i := range base {
		base[i] = seq.Code(rng.Intn(seq.AlphabetSize))
	}
	tail := make(seq.Sequence, 300) // all seq.A
	mutated := func(at int) seq.Sequence {
		s := base.Clone()
		s[at] = (s[at] + 1) % seq.AlphabetSize
		return s
	}
	gens := [][]seq.Sequence{
		{base, base[100:].Clone(), mutated(254), append(base[:40].Clone(), tail...)},
		{base.Clone(), mutated(255), base[345:].Clone(), append(base[500:].Clone(), tail...)},
		{mutated(256), base.Clone(), tail.Clone(), append(base[:40].Clone(), tail...)},
	}
	set, err := seq.NewSetS(gens[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens[1:] {
		if _, err := set.Append(g); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// LCPs of MaxLCP and more are stored as MaxLCP and finished from there by
// LCPAt: through Absorb, BuildBuckets and Truncate, ordered or not before
// the cut, the table matches the oracle on reads that share runs far past
// the saturation point.
func TestSortedTableSaturatedLCPs(t *testing.T) {
	set := saturatedSet(t)
	n2 := seq.StringID(set.NumStrings())
	for _, w := range []int{1, 4, 8} {
		saturated := false
		for name, cuts := range prefixSplits(int(n2)) {
			for _, ordered := range []bool{false, true} {
				sorted, scan := NewBuckets(w), NewBuckets(w)
				lo := seq.StringID(0)
				for i, hi := range cuts {
					touched := absorbInto(t, set, sorted, lo, hi, false)
					if _, err := scan.Absorb(set, lo, hi, 1); err != nil {
						t.Fatal(err)
					}
					lo = hi
					if i+1 == len(cuts) && !ordered {
						break // the last batch stays as laid out, as if its run were canceled
					}
					what := fmt.Sprintf("w %d split %s at %d", w, name, hi)
					got, err := BuildBuckets(set, sorted, touched, 1)
					if err != nil {
						t.Fatal(err)
					}
					requireSameForest(t, set, what, got, refForest(t, set, w, maskTo(NumBuckets(w), touched), 0, hi))
					requireSortedTable(t, set, what, sorted, scan)
				}
				for _, l := range sorted.lcp {
					saturated = saturated || l == MaxLCP
				}
				cut := cuts[len(cuts)-2]
				sorted.Truncate(set.Start(cut))
				want := NewBuckets(w)
				if _, err := want.Absorb(set, 0, cut, 1); err != nil {
					t.Fatal(err)
				}
				requireSortedTable(t, set, fmt.Sprintf("w %d split %s ordered=%v truncated to %d", w, name, ordered, cut), sorted, want)
			}
		}
		if !saturated {
			t.Fatalf("w %d: no LCP saturated; the input no longer reaches the case", w)
		}
	}
}

// Truncate is the inverse of Absorb on an ordered table: after cutting 0
// ESTs, 1 EST, half of them or all but one, its refs and LCPs are those of
// an ordered table that never saw the dropped strings.
func TestSortedTruncateIsInverseOfAbsorb(t *testing.T) {
	for _, shape := range []int{shapeDuplicates, shapeDeep, shapePolyA} {
		set := diffSet(t, 23, 10, shape)
		n2 := seq.StringID(set.NumStrings())
		const w = 3
		for _, cutESTs := range []int{0, 1, int(n2) / 4, int(n2)/2 - 1} {
			cut := seq.StringID(2 * cutESTs)
			table := NewBuckets(w)
			lo := seq.StringID(0)
			for _, hi := range []seq.StringID{cut, (cut + n2) / 2 &^ 1, n2} {
				absorbInto(t, set, table, lo, hi, true)
				lo = hi
			}
			table.Truncate(set.Start(cut))
			want := NewBuckets(w)
			absorbInto(t, set, want, 0, cut, true)
			what := fmt.Sprintf("shape %d cut %d ESTs", shape, cutESTs)
			requireSameTable(t, what, table, want)
			if !slices.Equal(table.lcp, want.lcp) || !slices.Equal(table.ordered, want.ordered) {
				t.Fatalf("%s: LCPs %v, want %v, or other ordered fronts", what, table.lcp, want.lcp)
			}
		}
	}
}

// The fanned-out layout and ordering give the one-worker table at every
// width, batch by batch, and leave no goroutine behind.
func TestSortedAbsorbWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, shape := range []int{shapeRandom, shapeDeep, shapePolyA} {
		set := diffSet(t, 41, 12, shape)
		cuts := prefixSplits(set.NumStrings())["50-25-25"]
		for _, w := range []int{1, 4} {
			want := NewBuckets(w)
			tables := make([]*Buckets, len(workerCounts))
			for i := range tables {
				tables[i] = NewBuckets(w)
			}
			lo := seq.StringID(0)
			for _, hi := range cuts {
				ids, err := want.Absorb(set, lo, hi, 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := BuildBuckets(set, want, ids, 1); err != nil {
					t.Fatal(err)
				}
				for i, workers := range workerCounts {
					got, err := tables[i].Absorb(set, lo, hi, workers)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("shape %d w %d at %d, %d workers", shape, w, hi, workers)
					if fmt.Sprint(got) != fmt.Sprint(ids) {
						t.Fatalf("%s: touched %v, want %v", what, got, ids)
					}
					if _, err := BuildBuckets(set, tables[i], got, workers); err != nil {
						t.Fatal(err)
					}
					requireSameTable(t, what, tables[i], want)
					if !slices.Equal(tables[i].lcp, want.lcp) {
						t.Fatalf("%s: LCPs differ", what)
					}
				}
				lo = hi
			}
		}
	}
}
