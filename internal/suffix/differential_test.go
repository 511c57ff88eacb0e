package suffix

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// codeOf returns the look-ahead code of suffix r in a table of window w, or
// 0 for a suffix shorter than the window: the oracle for the codes the
// partition scan writes.
func codeOf(set *seq.SetS, w int, r SuffixRef) uint8 {
	s := set.Suffix(r.SID, r.Pos)
	if len(s) < w {
		return 0
	}
	return lookAhead(s[w:])
}

// lookAhead packs the look-ahead code of a suffix whose characters past the
// window are s: the first four, two bits each, first highest, zero past end.
func lookAhead(s seq.Sequence) uint8 {
	var code uint64
	for i := 0; i < 4; i++ {
		code = roll(code, s, i, 0xff)
	}
	return uint8(code)
}

// tableFromMap lays a hand-written bucket map out as a flat table, each
// suffix behind its bucket's empty ordered front with its code.
func tableFromMap(set *seq.SetS, w int, m map[int][]SuffixRef) *Buckets {
	table := NewBuckets(w)
	for b := 0; b < NumBuckets(w); b++ {
		for _, r := range m[b] {
			table.refs = append(table.refs, posOf(set, r))
			table.lcp = append(table.lcp, codeOf(set, w, r))
		}
		table.off[b+1] = int32(len(table.refs))
	}
	return table
}

// Input shapes of the differential tests.
const (
	shapeRandom = iota
	shapeDuplicates
	shapeOneLetter
	shapeShort
	shapePolyA
	shapeDeep
	shapeLookAhead
	numShapes
)

// workerCounts are the fan-out widths every production build path is run at:
// one chunk inline, two, one that divides nothing evenly, and more workers
// than a w = 1 forest has trees.
var workerCounts = []int{1, 2, 3, 8}

// diffSet returns a three-generation set of n ESTs per generation in the
// given shape: random reads, reads drawn from a few templates (so whole
// suffixes repeat and terminator leaves abound), runs of a single letter,
// reads mostly shorter than any window the tests use, random heads with
// poly(A) tails longer than any window (some reads all tail), or reads cut
// from one 200-base template at spread offsets and lengths with 2 %
// substitutions, so shared runs span several 8-base words and break, and
// reads end, at every offset within a word; or template tails followed by 0
// to 7 A's, with a fifth of the reads all A, so suffixes end 0 to 3
// characters past any window in buckets where other strings hold real A's
// in the look-ahead code's padded positions, and identical suffixes abound.
func diffSet(t testing.TB, seed int64, n, shape int) *seq.SetS {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	random := func(l int) seq.Sequence {
		s := make(seq.Sequence, l)
		for i := range s {
			s[i] = seq.Code(rng.Intn(4))
		}
		return s
	}
	templates := []seq.Sequence{random(60), random(45), random(30)}
	var deep seq.Sequence // drawn only for shapeDeep, so the other shapes keep their inputs
	if shape == shapeDeep {
		deep = random(200)
	}
	next := func() seq.Sequence {
		switch shape {
		case shapeDuplicates:
			tpl := templates[rng.Intn(len(templates))]
			lo := rng.Intn(len(tpl) / 2)
			return tpl[lo : lo+len(tpl)/2+rng.Intn(len(tpl)/2-lo+1)].Clone()
		case shapeOneLetter:
			s := make(seq.Sequence, 1+rng.Intn(40))
			c := seq.Code(rng.Intn(2)) // A or C, so reverse complements are T or G runs
			for i := range s {
				s[i] = c
			}
			return s
		case shapeShort:
			return random(1 + rng.Intn(10))
		case shapePolyA:
			tail := make(seq.Sequence, 15+rng.Intn(30)) // all seq.A
			if rng.Intn(4) == 0 {
				return tail
			}
			return append(random(rng.Intn(20)), tail...)
		case shapeLookAhead:
			if rng.Intn(5) == 0 {
				return make(seq.Sequence, 1+rng.Intn(20))
			}
			tpl := templates[rng.Intn(len(templates))]
			return append(tpl[rng.Intn(len(tpl)):].Clone(), make(seq.Sequence, rng.Intn(8))...)
		case shapeDeep:
			lo := rng.Intn(len(deep) / 2)
			s := deep[lo : lo+1+rng.Intn(len(deep)-lo)].Clone()
			for i := range s {
				if rng.Intn(50) == 0 {
					s[i] = (s[i] + 1 + seq.Code(rng.Intn(3))) % seq.AlphabetSize
				}
			}
			return s
		default:
			return random(20 + rng.Intn(50))
		}
	}
	batch := func() []seq.Sequence {
		out := make([]seq.Sequence, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	set, err := seq.NewSetS(batch())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if _, err := set.Append(batch()); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// interval is an internal node as the leaves it spans: its string-depth
// and its first and last leaf.
type interval struct{ depth, lb, rb int32 }

// intervalsOf returns an ordered bucket's LCP intervals, found by the
// textbook stack pass, in (depth, lb) order.
func intervalsOf(tr *Tree) []interval {
	var out, stack []interval
	n := len(tr.Refs())
	for i := 1; i <= n; i++ {
		h := int32(0)
		if i < n {
			h = tr.LCPAt(i)
		}
		lb := int32(i - 1)
		for len(stack) > 0 && stack[len(stack)-1].depth > h {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.rb = int32(i - 1)
			out = append(out, v)
			lb = v.lb
		}
		if i < n && (len(stack) == 0 || stack[len(stack)-1].depth < h) {
			stack = append(stack, interval{depth: h, lb: lb})
		}
	}
	slices.SortFunc(out, compareIntervals)
	return out
}

// nodeIntervals returns a node tree's internal nodes as the leaves they
// span, in (depth, lb) order.
func nodeIntervals(tr *nodeTree) []interval {
	before := make([]int32, len(tr.Nodes)+1) // leaves among Nodes[:k]
	for k := range tr.Nodes {
		before[k+1] = before[k]
		if tr.IsLeaf(int32(k)) {
			before[k+1]++
		}
	}
	var out []interval
	for k, n := range tr.Nodes {
		if !tr.IsLeaf(int32(k)) {
			out = append(out, interval{depth: n.Depth, lb: before[k], rb: before[n.RML+1] - 1})
		}
	}
	slices.SortFunc(out, compareIntervals)
	return out
}

func compareIntervals(a, b interval) int {
	return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.lb, b.lb), cmp.Compare(a.rb, b.rb))
}

// requireSameForest fails unless got holds want's buckets, each ordered as
// its reference tree's preorder leaves with every LCP byte min(MaxLCP, the
// true LCP with the leaf before) and LCPAt the true LCP, its LCP intervals
// the tree's internal nodes, and its slices capped at their length so that
// no append through one tree can reach the next.
func requireSameForest(t testing.TB, set *seq.SetS, what string, got []*Tree, want []*nodeTree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, reference has %d", what, len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if g.Bucket != r.Bucket {
			t.Fatalf("%s: tree %d is bucket %d, reference has %d", what, i, g.Bucket, r.Bucket)
		}
		if len(g.Refs()) != r.NumLeaves() || len(g.LCP()) != len(g.Refs()) || cap(g.Refs()) != len(g.Refs()) || cap(g.LCP()) != len(g.LCP()) {
			t.Fatalf("%s: bucket %d has %d suffixes (capacity %d) and %d LCPs (capacity %d), reference %d leaves", what, g.Bucket, len(g.Refs()), cap(g.Refs()), len(g.LCP()), cap(g.LCP()), r.NumLeaves())
		}
		k := 0
		for v, n := range r.Nodes {
			if !r.IsLeaf(int32(v)) {
				continue
			}
			if leaf := (SuffixRef{SID: n.SID, Pos: n.Pos}); refAt(set, g.Refs()[k]) != leaf {
				t.Fatalf("%s: bucket %d suffix %d is %+v, preorder leaf is %+v", what, g.Bucket, k, refAt(set, g.Refs()[k]), leaf)
			}
			var want int32
			if k > 0 {
				p := refAt(set, g.Refs()[k-1])
				want = lcp(set.Suffix(p.SID, p.Pos), set.Suffix(n.SID, n.Pos))
			}
			if g.LCP()[k] != uint8(min(want, MaxLCP)) || g.LCPAt(k) != want {
				t.Fatalf("%s: bucket %d suffix %d has LCP byte %d and LCP %d, want %d", what, g.Bucket, k, g.LCP()[k], g.LCPAt(k), want)
			}
			k++
		}
		if gi, ri := intervalsOf(g), nodeIntervals(r); !slices.Equal(gi, ri) {
			t.Fatalf("%s: bucket %d has LCP intervals %v, the tree's internal nodes are %v", what, g.Bucket, gi, ri)
		}
	}
}

// requireSameNodes fails unless the two node forests hold the same buckets
// with the same nodes, element for element, and every tree verifies.
func requireSameNodes(t testing.TB, set *seq.SetS, what string, got, want []*nodeTree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, reference has %d", what, len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if g.Bucket != r.Bucket || !slices.Equal(g.Nodes, r.Nodes) {
			t.Fatalf("%s: tree %d is bucket %d with nodes %+v, reference has bucket %d with %+v", what, i, g.Bucket, g.Nodes, r.Bucket, r.Nodes)
		}
		if err := g.Verify(set); err != nil {
			t.Fatalf("%s: bucket %d: %v", what, g.Bucket, err)
		}
	}
}

// refForest is the oracle's forest over strings [0,hi), restricted to the
// buckets that owner gives to me. The node builder the sort replaced must
// write it node for node.
func refForest(t testing.TB, set *seq.SetS, w int, owner []int32, me int32, hi seq.StringID) []*nodeTree {
	t.Helper()
	byBucket := refCollectOwned(set, w, owner, me, 0, hi)
	forest, err := refBuildForest(set, byBucket, w)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nodeBuildForest(set, byBucket, w)
	if err != nil {
		t.Fatal(err)
	}
	requireSameNodes(t, set, "node builder", nodes, forest)
	return forest
}

// requireSameTable fails unless the two tables hold the same suffixes in the
// same order under the same offsets.
func requireSameTable(t testing.TB, what string, got, want *Buckets) {
	t.Helper()
	if len(got.off) != len(want.off) || len(got.refs) != len(want.refs) {
		t.Fatalf("%s: table of %d suffixes in %d buckets, want %d in %d", what, len(got.refs), len(got.off)-1, len(want.refs), len(want.off)-1)
	}
	for b := range got.off {
		if got.off[b] != want.off[b] {
			t.Fatalf("%s: offset of bucket %d is %d, want %d", what, b, got.off[b], want.off[b])
		}
	}
	for i := range got.refs {
		if got.refs[i] != want.refs[i] {
			t.Fatalf("%s: suffix %d is at %d, want %d", what, i, got.refs[i], want.refs[i])
		}
	}
}

// prefixSplits are the batch splits of the incremental-equivalence suite, as
// fractions of the strings absorbed after each batch.
func prefixSplits(n2 int) map[string][]seq.StringID {
	even := func(x int) seq.StringID { return seq.StringID(x &^ 1) } // whole ESTs
	return map[string][]seq.StringID{
		"70-30":       {even(n2 * 7 / 10), even(n2)},
		"50-25-25":    {even(n2 / 2), even(n2 * 3 / 4), even(n2)},
		"tail-by-one": {even(n2 - 2), even(n2)},
	}
}

// maskTo returns an owner array giving worker 0 exactly the listed buckets.
func maskTo(nb int, ids []int32) []int32 {
	mask := make([]int32, nb)
	for b := range mask {
		mask[b] = -1
	}
	for _, b := range ids {
		mask[b] = 0
	}
	return mask
}

// checkBuildMatchesReference fills a table over one input by every
// collector — CollectOwned over every bucket, over a fresh-only assignment
// and over one shard of three; and Absorb batch by batch under every split
// of the incremental-equivalence suite — orders it at every fan-out width
// the engine may use, and requires each to match the oracle's trees.
func checkBuildMatchesReference(t testing.TB, seed int64, n, w, shape int) {
	t.Helper()
	set := diffSet(t, seed, n, shape)
	n2 := seq.StringID(set.NumStrings())
	hist := Histogram(set, w, 0, n2)
	all := Assign(hist, 1)

	// One-shot: collect everything, order everything; the fresh-only
	// assignment a cache-less incremental run makes; and one shard of three,
	// as a slave, or a survivor rebuilding a dead slave's, collects it. Each
	// through BuildForest and at every width, each width on a table of its
	// own, since ordering happens in place.
	touchedOnly := AssignFresh(hist, Histogram(set, w, set.GenStartString(2), n2), 1)
	for _, c := range []struct {
		name  string
		owner []int32
		me    int32
	}{
		{"one-shot", all, 0},
		{"fresh-assigned", touchedOnly, 0},
		{"shard", Assign(hist, 3), 1},
	} {
		want := refForest(t, set, w, c.owner, c.me, n2)
		collect := func() *Buckets { return CollectOwned(set, w, c.owner, c.me, 0, n2) }
		forest, err := BuildForest(set, collect(), w)
		if err != nil {
			t.Fatal(err)
		}
		requireSameForest(t, set, c.name, forest, want)
		for _, workers := range workerCounts {
			table := collect()
			forest, err := BuildBuckets(set, table, table.NonEmpty(), workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, set, fmt.Sprintf("%s, %d workers", c.name, workers), forest, want)
			// Ordering an ordered table again changes nothing.
			again, err := BuildBuckets(set, table, table.NonEmpty(), workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, set, fmt.Sprintf("%s, %d workers, again", c.name, workers), again, want)
		}
	}
	whole := CollectOwned(set, w, all, 0, 0, n2)
	if _, err := BuildBuckets(set, whole, whole.NonEmpty(), 1); err != nil {
		t.Fatal(err)
	}

	// Cache path: after every batch the touched buckets, ordered in the
	// grown table at every fan-out width, are the oracle's trees over the
	// prefix; the fully grown table is the one-shot table.
	for name, cuts := range prefixSplits(int(n2)) {
		for _, workers := range workerCounts {
			table := NewBuckets(w)
			lo := seq.StringID(0)
			for _, hi := range cuts {
				touched, err := table.Absorb(set, lo, hi, workers)
				if err != nil {
					t.Fatal(err)
				}
				forest, err := BuildBuckets(set, table, touched, workers)
				if err != nil {
					t.Fatal(err)
				}
				want := refForest(t, set, w, maskTo(len(hist), touched), 0, hi)
				requireSameForest(t, set, fmt.Sprintf("split %s at %d, %d workers", name, hi, workers), forest, want)
				lo = hi
			}
			requireSameTable(t, fmt.Sprintf("split %s, %d workers", name, workers), table, whole)
		}
	}
}

func TestBuildMatchesReference(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for _, w := range []int{1, 4, 8} {
			for seed := int64(1); seed <= 4; seed++ {
				checkBuildMatchesReference(t, seed, 3+int(seed)*3, w, shape)
			}
		}
	}
}

type buildSeed struct {
	seed     int64
	n, w, sh uint8
}

// FuzzBuildMatchesReference's pinned seeds run in plain `go test` too: the
// testing package executes every f.Add entry as a subtest.
func FuzzBuildMatchesReference(f *testing.F) {
	for _, s := range []buildSeed{
		{1, 4, 1, shapeRandom},
		{2, 12, 4, shapeDuplicates},
		{3, 9, 8, shapeOneLetter},
		{4, 20, 3, shapeShort},
		{5, 1, 2, shapeDuplicates},
		{6, 30, 6, shapeRandom},
		{7, 16, 12, shapeDuplicates},
		{8, 7, 5, shapeOneLetter},
		{9, 24, 8, shapeDeep},
		{10, 12, 0, shapeLookAhead},
		{11, 12, 1, shapeLookAhead},
		{12, 12, 7, shapeLookAhead},
	} {
		f.Add(s.seed, s.n, s.w, s.sh)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w, shape uint8) {
		checkBuildMatchesReference(t, seed, 1+int(n%32), 1+int(w%8), int(shape%numShapes))
	})
}

// TestLookAheadWorkerCounts runs every fill path over input whose suffixes
// end 0 to 3 characters past the window where other strings hold real A's:
// every bucket must order into the oracle's tree, and every suffix behind an
// ordered front must hold its look-ahead code after each fill and after
// Truncate. At w = 1, 2 and 8 each path runs at 1, 2, 3 and 8 workers; at
// MaxWindow, where every table has 4^12 buckets and the full matrix takes
// most of a minute, each runs once, at two workers.
func TestLookAheadWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	for s, want := range map[string]uint8{"": 0, "C": 0x40, "AC": 0x10, "ACGT": 0x1b, "TTTTA": 0xff} {
		if got := lookAhead(mustSeq(t, s)); got != want {
			t.Errorf("lookAhead(%q) = %#x, want %#x", s, got, want)
		}
	}
	for _, w := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			checkBuildMatchesReference(t, seed, 12, w, shapeLookAhead)
			checkCodes(t, diffSet(t, seed, 12, shapeLookAhead), w, workerCounts)
		}
	}
	checkCodes(t, diffSet(t, 3, 12, shapeLookAhead), MaxWindow, []int{2})
}

// checkCodes fills tables of window w over set by every collector at each
// of the given widths and requires every unordered byte to be its suffix's
// code after each fill and after Truncate, and the truncated tables to order
// into the oracle's trees.
func checkCodes(t *testing.T, set *seq.SetS, w int, widths []int) {
	t.Helper()
	n2 := seq.StringID(set.NumStrings())
	hist := Histogram(set, w, 0, n2)
	all := Assign(hist, 1)
	collected := CollectOwned(set, w, all, 0, 0, n2)
	requireCodes(t, set, fmt.Sprintf("w %d, collected", w), collected)
	forest, err := BuildBuckets(set, collected, collected.NonEmpty(), widths[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameForest(t, set, fmt.Sprintf("w %d, collected", w), forest, refForest(t, set, w, all, 0, n2))
	for _, split := range []string{"70-30", "tail-by-one"} {
		for _, workers := range widths {
			what := fmt.Sprintf("w %d, split %s, %d workers", w, split, workers)
			table, lo := NewBuckets(w), seq.StringID(0)
			for _, hi := range prefixSplits(int(n2))[split] {
				if _, err := table.Absorb(set, lo, hi, workers); err != nil {
					t.Fatal(err)
				}
				requireCodes(t, set, what, table)
				lo = hi
			}
			// The cut drops the last EST from behind the fronts.
			table.Truncate(set.Start(n2 - 2))
			requireCodes(t, set, what+", truncated", table)
			forest, err := BuildBuckets(set, table, table.NonEmpty(), workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, set, what+", truncated", forest, refForest(t, set, w, all, 0, n2-2))
		}
	}
}

// requireCodes fails unless every suffix behind a bucket's ordered front
// holds its look-ahead code in its byte.
func requireCodes(t testing.TB, set *seq.SetS, what string, table *Buckets) {
	t.Helper()
	for b := 0; b+1 < len(table.off); b++ {
		for i := table.off[b] + table.ordered[b]; i < table.off[b+1]; i++ {
			if r := refAt(set, table.refs[i]); table.lcp[i] != codeOf(set, table.w, r) {
				t.Fatalf("%s: suffix (%d,%d) in bucket %d holds %#x, want its code %#x", what, r.SID, r.Pos, b, table.lcp[i], codeOf(set, table.w, r))
			}
		}
	}
}

// lessSuffix orders suffixes lexicographically, a proper prefix first.
func lessSuffix(a, b seq.Sequence) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// lcp is the longest common prefix of a and b, which ends at the first λ:
// the end of a suffix in the set's text.
func lcp(a, b seq.Sequence) int32 {
	n := int32(0)
	for int(n) < len(a) && int(n) < len(b) && a[n] == b[n] && a[n] != seq.Lambda {
		n++
	}
	return n
}

// The reference-free statement of what an ordered bucket is: its
// suffixes in lexicographic order with equal suffixes in (SID, Pos) order,
// which are the reference tree's preorder leaves, each with its LCP byte
// min(MaxLCP, the true LCP with the one before).
func TestPreorderLeavesAreTheSortedSuffixes(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for _, w := range []int{1, 4, 8} {
			set := diffSet(t, int64(10+shape), 8, shape)
			n2 := seq.StringID(set.NumStrings())
			all := Assign(Histogram(set, w, 0, n2), 1)
			scan := CollectOwned(set, w, all, 0, 0, n2)
			forest, err := BuildForest(set, CollectOwned(set, w, all, 0, 0, n2), w)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("shape %d w %d", shape, w)
			requireSameForest(t, set, what, forest, refForest(t, set, w, all, 0, n2))
			for _, tr := range forest {
				want := refsAt(set, scan.Refs(tr.Bucket))
				sort.SliceStable(want, func(i, j int) bool {
					return lessSuffix(set.Suffix(want[i].SID, want[i].Pos), set.Suffix(want[j].SID, want[j].Pos))
				})
				if got := refsAt(set, tr.Refs()); !slices.Equal(got, want) {
					t.Fatalf("%s bucket %d: suffixes %+v, sorted order %+v", what, tr.Bucket, got, want)
				}
			}
		}
	}
}

// commonPrefix agrees with a byte loop on every pair of lengths 0–17: equal
// strings, a proper prefix either way, and a mismatch or a shared λ at every
// offset, so the word loop, the byte tail and the hand-over between them
// are all met.
func TestCommonPrefix(t *testing.T) {
	const longest = 17
	rng := rand.New(rand.NewSource(1))
	base := make(seq.Sequence, longest)
	for i := range base {
		base[i] = seq.Code(rng.Intn(seq.AlphabetSize))
	}
	check := func(a, b seq.Sequence) {
		t.Helper()
		if got, want := commonPrefix(a, b), int(lcp(a, b)); got != want {
			t.Fatalf("commonPrefix(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	for la := 0; la <= longest; la++ {
		for lb := 0; lb <= longest; lb++ {
			a, b := base[:la], base[:lb].Clone()
			check(a, b)
			for k := 0; k < min(la, lb); k++ {
				b[k] ^= 1
				check(a, b)
				b[k] ^= 1
				a, b := a.Clone(), b.Clone()
				a[k], b[k] = seq.Lambda, seq.Lambda
				check(a, b)
			}
		}
	}
}

// FuzzCommonPrefix holds commonPrefix to the byte loop on any two strings
// over Σ ∪ {λ}, the bytes a text holds; CI's fuzz-smoke job runs it beyond
// the pinned seeds.
func FuzzCommonPrefix(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGA"))
	f.Add([]byte("ACGTACGTA"), []byte("ACGTACGTACGTACGTAC"))
	f.Add([]byte("ACGTACGT"), []byte("TCGTACGT"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		codes := func(p []byte) seq.Sequence {
			s := make(seq.Sequence, len(p))
			for i, c := range p {
				s[i] = seq.Code(c % seq.NumLeftChars)
			}
			return s
		}
		x, y := codes(a), codes(b)
		if got, want := commonPrefix(x, y), int(lcp(x, y)); got != want {
			t.Fatalf("commonPrefix(%v, %v) = %d, want %d", a, b, got, want)
		}
	})
}

// Truncate is the inverse of Absorb at the table level too: whatever was
// absorbed after a cut, and whether or not it was ordered since — every
// batch, none, or all but the last, which leaves an ordered front to cut
// into behind a tail as laid out — truncating to the cut leaves the table
// the prefix's batches leave, including a cut that empties buckets and cut 0.
func TestTruncateIsInverseOfAbsorb(t *testing.T) {
	set := diffSet(t, 21, 10, shapeDuplicates)
	n2 := seq.StringID(set.NumStrings())
	const w = 3
	for _, mode := range []string{"none", "all", "all but the last"} {
		for _, cut := range []seq.StringID{0, 2, n2 / 2 &^ 1, n2 - 2, n2} {
			table, want := NewBuckets(w), NewBuckets(w)
			lo := seq.StringID(0)
			cuts := []seq.StringID{cut, (cut + n2) / 2 &^ 1, n2}
			for i, hi := range cuts {
				absorbInto(t, set, table, lo, hi, mode == "all" || mode == "all but the last" && i+1 < len(cuts))
				lo = hi
			}
			table.Truncate(set.Start(cut))
			absorbInto(t, set, want, 0, cut, mode != "none")
			what := fmt.Sprintf("ordered %s, cut %d", mode, cut)
			requireSameTable(t, what, table, want)
			if !slices.Equal(table.lcp, want.lcp) || !slices.Equal(table.ordered, want.ordered) {
				t.Fatalf("%s: LCPs or ordered fronts differ", what)
			}
		}
	}
}

// absorbInto absorbs strings [lo,hi) into table on two workers and, if
// ordered, orders the buckets they touched, as a run's partition and
// construction phases do.
func absorbInto(t testing.TB, set *seq.SetS, table *Buckets, lo, hi seq.StringID, ordered bool) []int32 {
	t.Helper()
	touched, err := table.Absorb(set, lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ordered {
		if _, err := BuildBuckets(set, table, touched, 2); err != nil {
			t.Fatal(err)
		}
	}
	return touched
}

// The table's int32 offsets cap it at MaxInt32 suffixes. The limit is hit in
// the layout pass, before anything is allocated for the suffixes, so
// synthetic counts reach it.
func TestTableSizeLimit(t *testing.T) {
	layout := func(sizes []int64) ([]int32, error) {
		return offsets(len(sizes), func(b int) int64 { return sizes[b] })
	}
	_, err := layout([]int64{1 << 30, 1 << 30, 1 << 30, 1 << 30})
	if err == nil || !strings.Contains(err.Error(), "bucket 1's 1073741824 suffixes behind 1073741824 others") {
		t.Fatalf("2^32 suffixes: got %v, want an error naming the counts that cross the limit", err)
	}
	// Counts whose int64 sum would wrap negative are refused before they are
	// summed, not laid out.
	for _, huge := range [][]int64{{1 << 62, 1 << 62, 0, 0}, {1, math.MaxInt64, 0, 0}, {math.MaxInt32, 1, 0, 0}} {
		if _, err := layout(huge); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Errorf("sizes %v: got %v, want the size-limit error", huge, err)
		}
	}
	// Exactly MaxInt32 is still a table (laid out only: no refs allocated).
	if off, err := layout([]int64{math.MaxInt32 - 1, 0, 1, 0}); err != nil || off[4] != math.MaxInt32 {
		t.Errorf("MaxInt32 suffixes: offsets %v, err %v", off, err)
	}
}

// Collecting and ordering cost a fixed number of allocations whatever the
// number of ESTs, buckets and trees; and a tree's slices cannot be appended
// into the next tree.
func TestForestAllocationsIndependentOfSize(t *testing.T) {
	const w = 6
	for _, n := range []int{50, 500} {
		set := randomSet(t, rand.New(rand.NewSource(int64(n))), n, 300, 500)
		n2 := seq.StringID(set.NumStrings())
		owner := Assign(Histogram(set, w, 0, n2), 1)
		var forest []*Tree
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			forest, err = BuildForest(set, CollectOwned(set, w, owner, 0, 0, n2), w)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%d ESTs: %v allocations for %d trees, want at most 16", n, allocs, len(forest))
		}
		for i, tr := range forest {
			if cap(tr.Refs()) != len(tr.Refs()) || cap(tr.LCP()) != len(tr.LCP()) {
				t.Fatalf("%d ESTs: bucket %d has %d suffixes in capacity %d", n, tr.Bucket, len(tr.Refs()), cap(tr.Refs()))
			}
			if i+1 < len(forest) {
				next, nextLCP := forest[i+1].Refs()[0], forest[i+1].LCP()[0]
				_ = append(tr.Refs(), -1)
				_ = append(tr.LCP(), 7)
				if forest[i+1].Refs()[0] != next || forest[i+1].LCP()[0] != nextLCP {
					t.Fatalf("%d ESTs: append to bucket %d overwrote bucket %d", n, tr.Bucket, forest[i+1].Bucket)
				}
			}
		}
	}
}

// The fan-out's edges: one tree, fewer trees than workers and no tree at all
// order as one builder does, and every collector's table orders into the
// oracle's trees at 1, 2, 3 and 8 workers; a table a failed collect returned
// fails at every width, and a bad suffix fails with the error a single pass
// over the ids meets first. The leak guard holds every worker to exiting,
// on the error paths too.
func TestBuildWorkerCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, shape := range []int{shapeRandom, shapeDeep, shapePolyA} {
		checkBuildMatchesReference(t, 5, 9, 4, shape)
	}
	set := diffSet(t, 31, 6, shapePolyA)
	n2 := seq.StringID(set.NumStrings())
	const w = 4
	all := Assign(Histogram(set, w, 0, n2), 1)
	ids := CollectOwned(set, w, all, 0, 0, n2).NonEmpty()
	for name, ids := range map[string][]int32{"one tree": ids[:1], "three trees": ids[:3], "no tree": nil} {
		want := refForest(t, set, w, maskTo(len(all), ids), 0, n2)
		if len(want) != len(ids) {
			t.Fatalf("%s: %d trees for %d buckets", name, len(want), len(ids))
		}
		for _, workers := range workerCounts {
			got, err := BuildBuckets(set, CollectOwned(set, w, all, 0, 0, n2), ids, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, set, fmt.Sprintf("%s, %d workers", name, workers), got, want)
		}
	}
	for _, workers := range workerCounts {
		if forest, err := BuildBuckets(set, NewBuckets(w), nil, workers); err != nil || len(forest) != 0 {
			t.Errorf("empty table, %d workers: forest %v, err %v", workers, forest, err)
		}
	}

	// A collect too large for one table hands back an empty table carrying
	// its error; every entry point must return it rather than build an empty
	// forest.
	failed := errors.New("collect failed")
	carrying := CollectOwned(set, w, Assign(Histogram(set, w, 0, n2), 1), 0, 0, n2)
	carrying.err = failed
	for _, workers := range []int{1, 2, 8} {
		if _, err := BuildBuckets(set, carrying, carrying.NonEmpty(), workers); !errors.Is(err, failed) {
			t.Errorf("table carrying an error, %d workers: got %v", workers, err)
		}
	}
	if _, err := BuildForest(set, carrying, w); !errors.Is(err, failed) {
		t.Errorf("table carrying an error, BuildForest: got %v", err)
	}

	// Suffixes shorter than the window in buckets 5 and 12 of 16 one-suffix
	// buckets: bucket 5's is the one a single pass meets first.
	bad := map[int][]SuffixRef{}
	for b := 0; b < 16; b++ {
		bad[b] = []SuffixRef{{SID: 0, Pos: 0}}
	}
	last := int32(len(set.Str(0)))
	bad[5] = append(bad[5], SuffixRef{SID: 0, Pos: last - 2})
	bad[12] = append(bad[12], SuffixRef{SID: 0, Pos: last - 1})
	table := tableFromMap(set, w, bad)
	_, first := BuildBuckets(set, table, table.NonEmpty(), 1)
	if first == nil || !strings.Contains(first.Error(), fmt.Sprintf("at %d ", posOf(set, SuffixRef{SID: 0, Pos: last - 2}))) {
		t.Fatalf("one worker: got %v, want bucket 5's short suffix", first)
	}
	for _, workers := range workerCounts {
		if _, err := BuildBuckets(set, table, table.NonEmpty(), workers); err == nil || err.Error() != first.Error() {
			t.Errorf("%d workers: got %v, want %v", workers, err, first)
		}
	}
}
