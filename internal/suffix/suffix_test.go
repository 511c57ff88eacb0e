package suffix

import (
	"math/rand"
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
	seen := map[SuffixRef]int{}
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
	table := tableFromMap(t, w, map[int][]SuffixRef{bucket: refs})
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
	if tr.Len() != 1 || !tr.IsLeaf(0) {
		t.Fatalf("singleton bucket tree: %+v", tr.Nodes)
	}
	if tr.Nodes[0].Depth != 3 {
		t.Errorf("leaf depth %d want 3", tr.Nodes[0].Depth)
	}
}

// An empty bucket builds no tree; a suffix shorter than the window fails the
// build.
func TestBuildRejectsEmptyAndShort(t *testing.T) {
	set := mustSet(t, "ACG")
	if forest, err := buildBucket(t, set, 2, 1, nil); err != nil || len(forest) != 0 {
		t.Errorf("empty bucket: forest %v, err %v; want no tree and no error", forest, err)
	}
	if _, err := buildBucket(t, set, 2, 3, []SuffixRef{{SID: 0, Pos: 2}}); err == nil {
		t.Error("too-short suffix must fail")
	}
}

func TestBuildIdenticalSuffixes(t *testing.T) {
	// Two identical ESTs: every suffix appears twice; identical suffixes
	// must split at an internal node with terminator leaves.
	set := mustSet(t, "ACGT", "ACGT")
	forest := buildAll(t, set, 2)
	leaves := 0
	for _, tr := range forest {
		if err := tr.Verify(set); err != nil {
			t.Fatalf("bucket %d: %v", tr.Bucket, err)
		}
		leaves += tr.NumLeaves()
	}
	// 4 strings (two ESTs + two rc) of length 4, w=2 → 3 suffixes each.
	if leaves != 12 {
		t.Errorf("leaves %d want 12", leaves)
	}
}

func TestForestLeafCountsMatchSuffixCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	set := randomSet(t, rng, 12, 30, 80)
	w := 3
	forest := buildAll(t, set, w)
	leaves := 0
	for _, tr := range forest {
		if err := tr.Verify(set); err != nil {
			t.Fatalf("bucket %d: %v", tr.Bucket, err)
		}
		leaves += tr.NumLeaves()
	}
	want := 0
	for id := 0; id < set.NumStrings(); id++ {
		want += len(set.Str(seq.StringID(id))) - w + 1
	}
	if leaves != want {
		t.Errorf("forest leaves %d want %d", leaves, want)
	}
}

func TestTreeNavigation(t *testing.T) {
	// Strings chosen so bucket "AC" holds suffixes ACA, ACC (from two
	// strings) giving one internal node with two leaf children.
	set := mustSet(t, "ACAG", "ACCG")
	w := 2
	m := CollectOwned(set, w, Assign(Histogram(set, w, 0, 4), 1), 0, 0, 4)
	acBucket := 0<<2 | 1 // "AC"
	refs := m.Refs(acBucket)
	if len(refs) != 2 {
		t.Fatalf("AC bucket should hold 2 suffixes, got %v", refs)
	}
	forest, err := buildBucket(t, set, w, acBucket, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 {
		t.Fatalf("%d trees, want 1", len(forest))
	}
	tr := forest[0]
	if err := tr.Verify(set); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.IsLeaf(0) {
		t.Fatalf("shape: %+v", tr.Nodes)
	}
	if tr.Nodes[0].Depth != 2 {
		t.Errorf("root depth %d want 2 (label AC)", tr.Nodes[0].Depth)
	}
	kids := tr.Children(0, nil)
	if len(kids) != 2 || kids[0] != 1 || kids[1] != 2 {
		t.Errorf("children: %v", kids)
	}
	if tr.PathLabel(set, 0).String() != "AC" {
		t.Errorf("root label %q", tr.PathLabel(set, 0).String())
	}
}

// Every suffix must appear as exactly one leaf across the forest, and each
// leaf's path label must equal its suffix.
func TestForestLeavesAreExactlyTheSuffixes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	set := randomSet(t, rng, 8, 25, 60)
	w := 4
	forest := buildAll(t, set, w)
	seen := map[SuffixRef]bool{}
	for _, tr := range forest {
		for i := range tr.Nodes {
			if !tr.IsLeaf(int32(i)) {
				continue
			}
			n := tr.Nodes[i]
			r := SuffixRef{SID: n.SID, Pos: n.Pos}
			if seen[r] {
				t.Fatalf("suffix %v appears twice", r)
			}
			seen[r] = true
			if !tr.PathLabel(set, int32(i)).Equal(set.Suffix(n.SID, n.Pos)) {
				t.Fatalf("leaf label != suffix for %v", r)
			}
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

// Internal nodes must be branching: no child may carry the subtree's whole
// leaf set (checked by Verify's >=2-children rule across random inputs). A
// built tree's Nodes are also capped at their length, so an append through
// one tree cannot write into the next tree of the slab.
func TestVerifyRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		set := randomSet(t, rng, 3+rng.Intn(10), 15, 50)
		w := 2 + rng.Intn(4)
		for _, tr := range buildAll(t, set, w) {
			if err := tr.Verify(set); err != nil {
				t.Fatalf("trial %d bucket %d: %v", trial, tr.Bucket, err)
			}
			if cap(tr.Nodes) != len(tr.Nodes) {
				t.Fatalf("trial %d bucket %d: %d nodes in capacity %d", trial, tr.Bucket, len(tr.Nodes), cap(tr.Nodes))
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
	m := tableFromMap(t, 2, map[int][]SuffixRef{1: {{SID: 0, Pos: 0}}})
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

func TestNumLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(t, rng, 8, 20, 60)
	const w = 3
	table := CollectOwned(set, w, make([]int32, NumBuckets(w)), 0, 0, seq.StringID(set.NumStrings()))
	for _, tr := range buildAll(t, set, w) {
		if got, want := tr.NumLeaves(), len(table.Refs(tr.Bucket)); got != want {
			t.Fatalf("bucket %d: NumLeaves %d, the bucket holds %d suffixes", tr.Bucket, got, want)
		}
	}
	hand := &Tree{Nodes: []Node{{Depth: 3, RML: 0, SID: 0, Pos: 0}}}
	if hand.NumLeaves() != 1 {
		t.Errorf("hand-made tree NumLeaves = %d, want 1", hand.NumLeaves())
	}
}

func TestHistogramFromCountsOnlyFreshSuffixes(t *testing.T) {
	set := mustSet(t, "ACGTAC", "GGTTAA")
	gen, err := set.Append([]seq.Sequence{mustSeq(t, "ACACAC")})
	if err != nil {
		t.Fatal(err)
	}
	w := 2
	n2 := seq.StringID(set.NumStrings())
	all := Histogram(set, w, 0, n2)
	old := Histogram(set, w, 0, set.GenStartString(gen))
	fresh := HistogramFrom(set, w, gen, 0, n2)
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
