package suffix

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pace/internal/seq"
)

// mustSeq parses one sequence or fails the test.
func mustSeq(t testing.TB, s string) seq.Sequence {
	t.Helper()
	p, err := seq.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustSet(t testing.TB, strs ...string) *seq.SetS {
	t.Helper()
	ests := make([]seq.Sequence, len(strs))
	for i, s := range strs {
		var err error
		ests[i], err = seq.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func randomSet(t testing.TB, rng *rand.Rand, n, minLen, maxLen int) *seq.SetS {
	t.Helper()
	ests := make([]seq.Sequence, n)
	for i := range ests {
		l := minLen + rng.Intn(maxLen-minLen+1)
		s := make(seq.Sequence, l)
		for j := range s {
			s[j] = seq.Code(rng.Intn(4))
		}
		ests[i] = s
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestValidateWindow(t *testing.T) {
	if err := ValidateWindow(0); err == nil {
		t.Error("w=0 must fail")
	}
	if err := ValidateWindow(MaxWindow + 1); err == nil {
		t.Error("too-wide window must fail")
	}
	if err := ValidateWindow(8); err != nil {
		t.Error(err)
	}
}

func TestBucketEachEnumeratesAllLongSuffixes(t *testing.T) {
	s, _ := seq.Parse("ACGTA")
	var got []int32
	var buckets []int
	BucketEach(s, 2, func(b int, pos int32) {
		got = append(got, pos)
		buckets = append(buckets, b)
	})
	if len(got) != 4 {
		t.Fatalf("want 4 suffixes, got %v", got)
	}
	// Bucket of suffix at pos 0 is "AC" = 0*4+1 = 1.
	if buckets[0] != 1 {
		t.Errorf("bucket(AC) = %d", buckets[0])
	}
	// "TA" = 3*4+0 = 12.
	if buckets[3] != 12 {
		t.Errorf("bucket(TA) = %d", buckets[3])
	}
}

func TestBucketEachShortString(t *testing.T) {
	s, _ := seq.Parse("AC")
	called := false
	BucketEach(s, 3, func(int, int32) { called = true })
	if called {
		t.Error("string shorter than w must produce no suffixes")
	}
}

func TestBucketEachMatchesDirectEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		l := 1 + rng.Intn(40)
		s := make(seq.Sequence, l)
		for i := range s {
			s[i] = seq.Code(rng.Intn(4))
		}
		w := 1 + rng.Intn(6)
		want := map[int32]int{}
		for p := 0; p+w <= l; p++ {
			id := 0
			for k := 0; k < w; k++ {
				id = id<<2 | int(s[p+k])
			}
			want[int32(p)] = id
		}
		got := map[int32]int{}
		BucketEach(s, w, func(b int, pos int32) { got[pos] = b })
		if len(got) != len(want) {
			t.Fatalf("trial %d: count %d want %d", trial, len(got), len(want))
		}
		for p, b := range want {
			if got[p] != b {
				t.Fatalf("trial %d pos %d: %d want %d", trial, p, got[p], b)
			}
		}
	}
}

func TestHistogramTotal(t *testing.T) {
	set := mustSet(t, "ACGTACGT", "GGGTTT")
	w := 3
	hist := Histogram(set, w, 0, seq.StringID(set.NumStrings()))
	var total int64
	for _, c := range hist {
		total += c
	}
	// Each string of length L contributes L-w+1 suffixes; both
	// orientations counted.
	want := int64(2*(8-3+1) + 2*(6-3+1))
	if total != want {
		t.Errorf("histogram total %d want %d", total, want)
	}
}

func TestAssignBalance(t *testing.T) {
	hist := []int64{100, 90, 50, 40, 10, 5, 0, 0}
	owner := Assign(hist, 3)
	if owner[6] != -1 || owner[7] != -1 {
		t.Error("empty buckets must be unassigned")
	}
	loads := Loads(hist, owner, 3)
	var min, max int64 = loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// LPT on this instance yields {100, 95, 100}.
	if max-min > 10 {
		t.Errorf("imbalance too high: %v", loads)
	}
}

func TestAssignSingleWorker(t *testing.T) {
	hist := []int64{3, 0, 7}
	owner := Assign(hist, 1)
	if owner[0] != 0 || owner[2] != 0 || owner[1] != -1 {
		t.Errorf("owner: %v", owner)
	}
}

func TestCollectOwnedCoversEverySuffixExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set := randomSet(t, rng, 10, 20, 60)
	w := 4
	hist := Histogram(set, w, 0, seq.StringID(set.NumStrings()))
	p := 3
	owner := Assign(hist, p)
	seen := map[int32]int{}
	var total int
	for me := int32(0); me < int32(p); me++ {
		m := CollectOwned(set, w, owner, me, 0, seq.StringID(set.NumStrings()))
		for _, b := range m.NonEmpty() {
			if owner[b] != me {
				t.Fatalf("bucket %d collected by non-owner %d", b, me)
			}
			for _, r := range m.Refs(int(b)) {
				seen[r]++
				total++
			}
		}
	}
	var want int
	for id := 0; id < set.NumStrings(); id++ {
		if l := len(set.Str(seq.StringID(id))); l >= w {
			want += l - w + 1
		}
	}
	if total != want {
		t.Fatalf("collected %d suffixes, want %d", total, want)
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("suffix %v collected %d times", r, c)
		}
	}
}

func buildAll(t testing.TB, set *seq.SetS, w int) []*Tree {
	t.Helper()
	m := CollectOwned(set, w, Assign(Histogram(set, w, 0, seq.StringID(set.NumStrings())), 1), 0,
		0, seq.StringID(set.NumStrings()))
	forest, err := BuildForest(set, m, w)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// buildBucket builds one hand-made bucket of window w through BuildBuckets.
func buildBucket(t testing.TB, set *seq.SetS, w, bucket int, refs []SuffixRef) ([]*Tree, error) {
	t.Helper()
	table := tableFromMap(set, w, map[int][]SuffixRef{bucket: refs})
	return BuildBuckets(set, table, []int32{int32(bucket)}, 1)
}

func TestBuildSingleSuffixBucket(t *testing.T) {
	set := mustSet(t, "ACG")
	forest, err := buildBucket(t, set, 2, 1, []SuffixRef{{SID: 0, Pos: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 || forest[0].Bucket != 1 {
		t.Fatalf("forest = %v, want exactly bucket 1", forest)
	}
	tr := forest[0]
	if len(tr.Refs()) != 1 || len(tr.LCP()) != 1 || tr.LCP()[0] != 0 {
		t.Fatalf("singleton bucket tree: %+v %v", tr.Refs(), tr.LCP())
	}
	if st := Stats(forest); st.Nodes != 1 || st.MaxDepth != 3 {
		t.Errorf("singleton bucket: %d nodes of depth up to %d, want one leaf of depth 3", st.Nodes, st.MaxDepth)
	}
}

// An empty bucket builds no tree; a suffix shorter than the window fails the
// build, which names it. At every window width a bucket holds long suffixes
// and a short one, w − 1 characters before its string's λ, either mid-text,
// where the window is read a word at a time, or at the text's end, where it
// is read a byte at a time; with both short, the first in position order is
// named.
func TestBuildRejectsEmptyAndShort(t *testing.T) {
	set := mustSet(t, "ACG")
	if forest, err := buildBucket(t, set, 2, 1, nil); err != nil || len(forest) != 0 {
		t.Errorf("empty bucket: forest %v, err %v; want no tree and no error", forest, err)
	}
	const l = 24
	set = mustSet(t, strings.Repeat("ACGT", l/4), strings.Repeat("GATTACA", l/7+1)[:l])
	last := seq.StringID(set.NumStrings() - 1)
	for _, w := range []int{1, 7, 8, 9, 12} {
		mid, end := SuffixRef{SID: 0, Pos: int32(l - w + 1)}, SuffixRef{SID: last, Pos: int32(l - w + 1)}
		if n := len(set.Text()) - int(posOf(set, end)); n >= 16 {
			t.Fatalf("w = %d: the short suffix at the end has %d bytes to the text's end", w, n)
		}
		for _, c := range []struct {
			name  string
			short []SuffixRef
		}{{"mid-text", []SuffixRef{mid}}, {"at the end", []SuffixRef{end}}, {"both", []SuffixRef{mid, end}}} {
			refs := append([]SuffixRef{{SID: 0, Pos: 0}, {SID: 1, Pos: 3}, {SID: last, Pos: 0}}, c.short...)
			slices.SortFunc(refs, func(a, b SuffixRef) int { return cmp.Compare(posOf(set, a), posOf(set, b)) })
			_, err := buildBucket(t, set, w, 0, refs)
			if want := fmt.Sprintf("suffix at %d shorter than window %d", posOf(set, c.short[0]), w); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("w = %d, short suffix %s: got %v, want %q", w, c.name, err, want)
			}
		}
		// Suffixes of exactly w characters, mid-text and at the end, are not
		// short: the λ just past the window is outside its mask.
		exact := []SuffixRef{{SID: 0, Pos: int32(l - w)}, {SID: 1, Pos: 3}, {SID: last, Pos: int32(l - w)}}
		if _, err := buildBucket(t, set, w, 0, exact); err != nil {
			t.Errorf("w = %d, no short suffix: %v", w, err)
		}
	}
}

// verifyTree checks an ordered bucket against the sequence set: its
// suffixes ascend, equal ones in (SID, Pos) order, and every LCP byte is
// min(MaxLCP, the true LCP with the suffix before) and LCPAt the true LCP.
func verifyTree(set *seq.SetS, tr *Tree) error {
	if len(tr.Refs()) == 0 || len(tr.LCP()) != len(tr.Refs()) || tr.LCP()[0] != 0 {
		return fmt.Errorf("%d suffixes with %d LCPs, the first %v", len(tr.Refs()), len(tr.LCP()), tr.LCP())
	}
	for i := 1; i < len(tr.Refs()); i++ {
		p, r := refAt(set, tr.Refs()[i-1]), refAt(set, tr.Refs()[i])
		a, b := set.Str(p.SID)[p.Pos:], set.Str(r.SID)[r.Pos:]
		if lessSuffix(b, a) || slices.Equal(a, b) && (r.SID < p.SID || r.SID == p.SID && r.Pos < p.Pos) {
			return fmt.Errorf("suffix %d %+v sorts before suffix %d %+v", i, r, i-1, p)
		}
		if d := lcp(a, b); tr.LCP()[i] != uint8(min(d, MaxLCP)) || tr.LCPAt(i) != d {
			return fmt.Errorf("suffix %d: LCP byte %d and LCP %d, want %d", i, tr.LCP()[i], tr.LCPAt(i), d)
		}
	}
	return nil
}

func TestBuildIdenticalSuffixes(t *testing.T) {
	// Two identical ESTs: every suffix appears twice; identical suffixes
	// must split at an internal node whose leaves they all are.
	set := mustSet(t, "ACGT", "ACGT")
	forest := buildAll(t, set, 2)
	for _, tr := range forest {
		if err := verifyTree(set, tr); err != nil {
			t.Fatalf("bucket %d: %v", tr.Bucket, err)
		}
	}
	// 4 strings (two ESTs + two rc) of length 4, w=2 → 3 suffixes each.
	if leaves := Stats(forest).Leaves; leaves != 12 {
		t.Errorf("leaves %d want 12", leaves)
	}
	hi := seq.StringID(set.NumStrings())
	requireSameForest(t, set, "identical", forest, refForest(t, set, 2, Assign(Histogram(set, 2, 0, hi), 1), 0, hi))
}

func TestForestLeafCountsMatchSuffixCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	set := randomSet(t, rng, 12, 30, 80)
	w := 3
	forest := buildAll(t, set, w)
	for _, tr := range forest {
		if err := verifyTree(set, tr); err != nil {
			t.Fatalf("bucket %d: %v", tr.Bucket, err)
		}
	}
	want := 0
	for id := 0; id < set.NumStrings(); id++ {
		want += len(set.Str(seq.StringID(id))) - w + 1
	}
	if leaves := Stats(forest).Leaves; leaves != int64(want) {
		t.Errorf("forest leaves %d want %d", leaves, want)
	}
}

func TestTreeNavigation(t *testing.T) {
	// Strings chosen so bucket "AC" holds suffixes ACA, ACC (from two
	// strings) giving one internal node, the interval of both leaves at
	// depth 2, with two leaf children.
	set := mustSet(t, "ACAG", "ACCG")
	w := 2
	m := CollectOwned(set, w, Assign(Histogram(set, w, 0, 4), 1), 0, 0, 4)
	acBucket := 0<<2 | 1 // "AC"
	refs := m.Refs(acBucket)
	if len(refs) != 2 {
		t.Fatalf("AC bucket should hold 2 suffixes, got %v", refs)
	}
	forest, err := buildBucket(t, set, w, acBucket, refsAt(set, refs))
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 {
		t.Fatalf("%d trees, want 1", len(forest))
	}
	tr := forest[0]
	if err := verifyTree(set, tr); err != nil {
		t.Fatal(err)
	}
	if got := intervalsOf(tr); !slices.Equal(got, []interval{{depth: 2, lb: 0, rb: 1}}) {
		t.Fatalf("intervals %v, want the root over both leaves at depth 2", got)
	}
	if st := Stats(forest); st.Nodes != 3 || st.InternalNodes != 1 {
		t.Errorf("%d nodes, %d internal, want 3 and 1", st.Nodes, st.InternalNodes)
	}
	r := refAt(set, tr.Refs()[0])
	if label := set.Str(r.SID)[r.Pos : r.Pos+tr.LCPAt(1)].String(); label != "AC" {
		t.Errorf("root label %q", label)
	}
}

// Every suffix must appear as exactly one leaf across the forest.
func TestForestLeavesAreExactlyTheSuffixes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	set := randomSet(t, rng, 8, 25, 60)
	w := 4
	forest := buildAll(t, set, w)
	seen := map[SuffixRef]bool{}
	for _, tr := range forest {
		for _, r := range refsAt(set, tr.Refs()) {
			if seen[r] {
				t.Fatalf("suffix %v appears twice", r)
			}
			seen[r] = true
		}
	}
	for id := 0; id < set.NumStrings(); id++ {
		l := len(set.Str(seq.StringID(id)))
		for p := 0; p+w <= l; p++ {
			if !seen[SuffixRef{SID: seq.StringID(id), Pos: int32(p)}] {
				t.Fatalf("suffix (%d,%d) missing from forest", id, p)
			}
		}
	}
}

// Random forests verify, and their trees' slices are capped at their
// length, so an append through one tree cannot write into the next.
func TestVerifyRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		set := randomSet(t, rng, 3+rng.Intn(10), 15, 50)
		w := 2 + rng.Intn(4)
		for _, tr := range buildAll(t, set, w) {
			if err := verifyTree(set, tr); err != nil {
				t.Fatalf("trial %d bucket %d: %v", trial, tr.Bucket, err)
			}
			if cap(tr.Refs()) != len(tr.Refs()) || cap(tr.LCP()) != len(tr.LCP()) {
				t.Fatalf("trial %d bucket %d: %d suffixes in capacity %d", trial, tr.Bucket, len(tr.Refs()), cap(tr.Refs()))
			}
		}
	}
}

func TestNumBuckets(t *testing.T) {
	if NumBuckets(1) != 4 || NumBuckets(8) != 65536 {
		t.Error("NumBuckets wrong")
	}
}

func TestBuildForestSkipsEmptyBuckets(t *testing.T) {
	set := mustSet(t, "ACGT")
	// Buckets 0 and 9 hold nothing, as a rollback can leave them.
	m := tableFromMap(set, 2, map[int][]SuffixRef{1: {{SID: 0, Pos: 0}}})
	forest, err := BuildForest(set, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 || forest[0].Bucket != 1 {
		t.Fatalf("forest = %v, want exactly bucket 1", forest)
	}
	for _, workers := range []int{1, 2, 8} {
		forest, err = BuildBuckets(set, m, []int32{0, 1, 9}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(forest) != 1 || forest[0].Bucket != 1 {
			t.Fatalf("workers=%d: listed forest = %v, want exactly bucket 1", workers, forest)
		}
	}
	if _, err := BuildForest(set, m, 3); err == nil {
		t.Error("building a w=2 table with w=3 must fail")
	}
}

// A tree's leaves are its bucket's suffixes, every one of them.
func TestNumLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(t, rng, 8, 20, 60)
	const w = 3
	table := CollectOwned(set, w, make([]int32, NumBuckets(w)), 0, 0, seq.StringID(set.NumStrings()))
	for _, tr := range buildAll(t, set, w) {
		if got, want := len(tr.Refs()), len(table.Refs(tr.Bucket)); got != want {
			t.Fatalf("bucket %d: %d leaves, the bucket holds %d suffixes", tr.Bucket, got, want)
		}
	}
}

// TestHistogramOfFreshRangeCountsOnlyFreshSuffixes checks the range clamp an
// incremental run counts its batch with: generations are monotone in string
// id, so the strings from GenStartString(gen) on are exactly the fresh ones.
func TestHistogramOfFreshRangeCountsOnlyFreshSuffixes(t *testing.T) {
	set := mustSet(t, "ACGTAC", "GGTTAA")
	gen, err := set.Append([]seq.Sequence{mustSeq(t, "ACACAC")})
	if err != nil {
		t.Fatal(err)
	}
	w := 2
	n2 := seq.StringID(set.NumStrings())
	all := Histogram(set, w, 0, n2)
	old := Histogram(set, w, 0, set.GenStartString(gen))
	fresh := Histogram(set, w, set.GenStartString(gen), n2)
	// The batch's one EST and its reverse complement: 2·(6−w+1) suffixes.
	var nFresh int64
	for _, h := range fresh {
		nFresh += h
	}
	if nFresh != 10 {
		t.Errorf("fresh range holds %d suffixes, want 10", nFresh)
	}
	for b := range all {
		if old[b]+fresh[b] != all[b] {
			t.Fatalf("bucket %d: old %d + fresh %d != all %d", b, old[b], fresh[b], all[b])
		}
	}
}

func TestAssignFreshSkipsUntouchedBuckets(t *testing.T) {
	hist := []int64{10, 5, 0, 7}
	fresh := []int64{0, 2, 0, 1}
	owner := AssignFresh(hist, fresh, 2)
	if owner[0] != -1 {
		t.Errorf("untouched non-empty bucket 0 assigned to %d", owner[0])
	}
	if owner[2] != -1 {
		t.Errorf("empty bucket 2 assigned to %d", owner[2])
	}
	if owner[1] < 0 || owner[3] < 0 {
		t.Errorf("touched buckets unassigned: %v", owner)
	}
}
