package pairgen

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pace/internal/seq"
	"pace/internal/suffix"
)

// buildForest builds the complete forest (single worker) for a set.
func buildForest(t testing.TB, set *seq.SetS, w int) []*suffix.Tree {
	t.Helper()
	hi := seq.StringID(set.NumStrings())
	owner := suffix.Assign(suffix.Histogram(set, w, 0, hi), 1)
	m := suffix.CollectOwned(set, w, owner, 0, 0, hi)
	forest, err := suffix.BuildForest(set, m, w)
	if err != nil {
		t.Fatal(err)
	}
	return forest
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

func randomESTs(rng *rand.Rand, n, minLen, maxLen int) []seq.Sequence {
	out := make([]seq.Sequence, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		s := make(seq.Sequence, l)
		for j := range s {
			s[j] = seq.Code(rng.Intn(4))
		}
		out[i] = s
	}
	return out
}

// lcsLen computes the longest common substring length by DP — the
// brute-force oracle for promising pairs.
func lcsLen(a, b seq.Sequence) int32 {
	prev := make([]int32, len(b)+1)
	cur := make([]int32, len(b)+1)
	var best int32
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// drain pulls every pair with the given batch size.
func min32(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func drain(g *Generator, batch int) []Pair {
	var all []Pair
	for {
		n := len(all)
		all = g.Next(all, batch)
		if len(all) == n {
			return all
		}
	}
}

func TestNewValidation(t *testing.T) {
	set := mustSet(t, "ACGTACGT")
	if _, err := New(set, nil, 0); err == nil {
		t.Error("psi=0 must fail")
	}
	if _, err := NewFresh(set, buildForest(t, set, 4), -3, 0); err == nil {
		t.Error("psi=-3 must fail")
	}
}

func TestEmptyForest(t *testing.T) {
	set := mustSet(t, "ACGTACGT")
	g, err := New(set, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := drain(g, 10); len(pairs) != 0 {
		t.Errorf("empty forest produced %d pairs", len(pairs))
	}
	if g.Remaining() {
		t.Error("exhausted generator claims more")
	}
}

func TestSimpleOverlapPair(t *testing.T) {
	// Two ESTs sharing a 12-char block; psi=8 must pair them.
	set := mustSet(t,
		"AACCGGTTACGTACGTAAAA",
		"CCCCACGTACGTACGTGGGG")
	w := 4
	g, err := New(set, buildForest(t, set, w), 8)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 4)
	if len(pairs) == 0 {
		t.Fatal("no pairs generated")
	}
	seen := map[[2]seq.StringID]bool{}
	for _, p := range pairs {
		seen[[2]seq.StringID{p.S1, p.S2}] = true
		if e1, e2 := p.ESTs(); e1 != 0 || e2 != 1 {
			t.Errorf("unexpected EST pair %d,%d", e1, e2)
		}
	}
	if !seen[[2]seq.StringID{seq.Forward(0), seq.Forward(1)}] {
		t.Errorf("forward/forward pair missing: %v", seen)
	}
}

func TestReverseComplementPairDetected(t *testing.T) {
	// EST 1 overlaps the reverse complement of EST 0.
	rng := rand.New(rand.NewSource(3))
	e0 := randomESTs(rng, 1, 60, 60)[0]
	e1 := e0[10:50].ReverseComplement()
	ests := []seq.Sequence{e0, e1}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(set, buildForest(t, set, 6), 20)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 16)
	found := false
	for _, p := range pairs {
		if p.S1 == seq.Forward(0) && p.S2 == seq.Forward(1).Mate() {
			found = true
		}
		if p.S1.IsReverse() {
			t.Errorf("canonical pair with reversed S1: %+v", p)
		}
	}
	if !found {
		t.Errorf("rc overlap not detected: %+v", pairs)
	}
}

// Anchors reported by the generator must be genuine maximal common
// substrings (Lemma 1).
func TestAnchorsAreMaximalCommonSubstrings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ests := randomESTs(rng, 8, 40, 90)
	// Plant overlaps so pairs exist.
	ests[1] = append(ests[0][20:].Clone(), ests[1][:30]...)
	ests[3] = ests[2][5:min32(60, len(ests[2]))].ReverseComplement()
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	psi := int32(12)
	g, err := New(set, buildForest(t, set, 6), int(psi))
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 7)
	if len(pairs) == 0 {
		t.Fatal("expected pairs")
	}
	for _, p := range pairs {
		s1, s2 := set.Str(p.S1), set.Str(p.S2)
		if p.MatchLen < psi {
			t.Fatalf("pair below threshold: %+v", p)
		}
		if !slices.Equal(s1[p.Pos1:p.Pos1+p.MatchLen], s2[p.Pos2:p.Pos2+p.MatchLen]) {
			t.Fatalf("anchor is not a common substring: %+v", p)
		}
		leftMax := p.Pos1 == 0 || p.Pos2 == 0 || s1[p.Pos1-1] != s2[p.Pos2-1]
		r1, r2 := p.Pos1+p.MatchLen, p.Pos2+p.MatchLen
		rightMax := int(r1) == len(s1) || int(r2) == len(s2) || s1[r1] != s2[r2]
		if !leftMax || !rightMax {
			t.Fatalf("anchor not maximal (left=%v right=%v): %+v", leftMax, rightMax, p)
		}
	}
}

// Completeness & soundness (Lemmas 1+3): the set of distinct canonical
// string pairs generated equals the brute-force set of pairs with longest
// common substring >= psi.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(5)
		ests := randomESTs(rng, n, 30, 70)
		// Plant structure: overlaps, containments, rc overlaps.
		if n >= 2 {
			ests[1] = append(ests[0][10:].Clone(), ests[1][:20]...)
		}
		if n >= 4 {
			ests[3] = ests[2][5:min32(40, len(ests[2]))].ReverseComplement()
		}
		set, err := seq.NewSetS(ests)
		if err != nil {
			t.Fatal(err)
		}
		psi := 14
		g, err := New(set, buildForest(t, set, 6), psi)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]seq.StringID]bool{}
		for _, p := range drain(g, 13) {
			got[[2]seq.StringID{p.S1, p.S2}] = true
		}
		want := map[[2]seq.StringID]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ff := lcsLen(set.Str(seq.Forward(seq.ESTID(i))), set.Str(seq.Forward(seq.ESTID(j))))
				if ff >= int32(psi) {
					want[[2]seq.StringID{seq.Forward(seq.ESTID(i)), seq.Forward(seq.ESTID(j))}] = true
				}
				fr := lcsLen(set.Str(seq.Forward(seq.ESTID(i))), set.Str(seq.Forward(seq.ESTID(j)).Mate()))
				if fr >= int32(psi) {
					want[[2]seq.StringID{seq.Forward(seq.ESTID(i)), seq.Forward(seq.ESTID(j)).Mate()}] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d distinct pairs want %d\n got: %v\nwant: %v",
				trial, len(got), len(want), got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing pair %v", trial, k)
			}
		}
	}
}

// Pairs must come out in non-increasing order of maximal common substring
// length (the greedy processing order).
func TestDecreasingMatchLen(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ests := randomESTs(rng, 12, 50, 100)
	for i := 1; i < 6; i++ {
		cut := 10 + rng.Intn(20)
		ests[i] = append(ests[0][cut:].Clone(), ests[i][:cut]...)
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(set, buildForest(t, set, 6), 10)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 3)
	if len(pairs) < 2 {
		t.Skip("not enough pairs to check ordering")
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].MatchLen > pairs[i-1].MatchLen {
			t.Fatalf("order violated at %d: %d after %d", i, pairs[i].MatchLen, pairs[i-1].MatchLen)
		}
	}
}

// The same (pair, anchor) tuple must never be emitted twice, and a pair is
// emitted at most once per distinct maximal common substring (Corollary 2).
func TestNoDuplicateEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ests := randomESTs(rng, 10, 40, 80)
	ests[1] = append(ests[0][15:].Clone(), ests[1][:25]...)
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(set, buildForest(t, set, 5), 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Pair]bool{}
	for _, p := range drain(g, 9) {
		if seen[p] {
			t.Fatalf("duplicate emission: %+v", p)
		}
		seen[p] = true
	}
}

// Batch size must not change the emitted sequence.
func TestBatchingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ests := randomESTs(rng, 10, 50, 90)
	ests[2] = append(ests[5][10:].Clone(), ests[2][:30]...)
	ests[7] = ests[4][5:min32(50, len(ests[4]))].ReverseComplement()
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	forest := buildForest(t, set, 6)
	g1, _ := New(set, forest, 12)
	g2, _ := New(set, forest, 12)
	a := drain(g1, 1)
	b := drain(g2, 1000)
	if len(a) != len(b) {
		t.Fatalf("batching changed count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batching changed order at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSelfPairsDiscarded(t *testing.T) {
	// A palindromic-ish EST overlaps its own reverse complement; such
	// pairs must be discarded, not emitted.
	set := mustSet(t, "ACGTACGTACGTACGTACGT", "GGGGGGGGCCCCCCCCGGGG")
	g, err := New(set, buildForest(t, set, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range drain(g, 8) {
		e1, e2 := p.ESTs()
		if e1 == e2 {
			t.Fatalf("self pair emitted: %+v", p)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ests := randomESTs(rng, 6, 40, 60)
	ests[1] = ests[0][5:min32(45, len(ests[0]))].Clone()
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(set, buildForest(t, set, 5), 10)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 50)
	st := g.Stats()
	if st.Generated != int64(len(pairs)) {
		t.Errorf("Generated %d != emitted %d", st.Generated, len(pairs))
	}
}

// Storage must stay linear: the generator holds one byte per suffix and one
// order entry per scheduled node — nothing that grows with the pairs
// generated. On deep coverage most deep internal nodes hold a single left
// character, so fewer than half of them are scheduled.
func TestEntriesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ests := randomESTs(rng, 10, 50, 80)
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	w := 5
	psi := 5 // every suffix-bearing node is deep
	forest := buildForest(t, set, w)
	st := suffix.Stats(forest)
	g, err := New(set, forest, psi)
	if err != nil {
		t.Fatal(err)
	}
	drain(g, 1000)
	held := cap(g.flags) + int(unsafe.Sizeof(nodeRef{}))*cap(g.order)
	if bound := int(st.Leaves) + int(unsafe.Sizeof(nodeRef{}))*len(g.order); held > bound {
		t.Errorf("generator holds %d bytes for %d suffixes and %d scheduled nodes, bound %d", held, st.Leaves, len(g.order), bound)
	}

	set, forest = deepCoverage(t, 100)
	g, err = New(set, forest, 20)
	if err != nil {
		t.Fatal(err)
	}
	deep := deepInternal(forest, 20)
	if len(g.order) == 0 || 2*int64(len(g.order)) >= deep {
		t.Errorf("%d of %d deep internal nodes scheduled on 20x coverage, want fewer than half", len(g.order), deep)
	}
}

// deepInternal counts the internal nodes of string-depth >= psi in the
// forest: the LCP intervals of that depth, each closed by the first LCP
// below it.
func deepInternal(forest []*suffix.Tree, psi int32) int64 {
	var n int64
	for _, t := range forest {
		var open []int32
		for i := 1; i <= len(t.Refs()); i++ {
			h := int32(0)
			if i < len(t.Refs()) {
				h = t.LCPAt(i)
			}
			for len(open) > 0 && open[len(open)-1] > h {
				if open[len(open)-1] >= psi {
					n++
				}
				open = open[:len(open)-1]
			}
			if h > 0 && (len(open) == 0 || open[len(open)-1] < h) {
				open = append(open, h)
			}
		}
	}
	return n
}

// allocWorkload builds n random ESTs threaded with overlaps, and their forest.
func allocWorkload(t testing.TB, n int) (*seq.SetS, []*suffix.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	ests := randomESTs(rng, n, 60, 120)
	for i := 1; i < n; i++ {
		ests[i] = append(ests[i-1][30:].Clone(), ests[i][:30]...)
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	return set, buildForest(t, set, 6)
}

// Generator construction must cost a constant number of allocations — the
// arenas — however large the forest, and a full drain only the amortized
// growth of the snapshot scratch.
func TestAllocationsIndependentOfForestSize(t *testing.T) {
	var newAllocs, drainAllocs [2]float64
	for i, n := range []int{50, 500} {
		set, forest := allocWorkload(t, n)
		newAllocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := NewFresh(set, forest, 12, 0); err != nil {
				t.Fatal(err)
			}
		})
		buf := make([]Pair, 0, 60)
		pairs := 0
		drainAllocs[i] = testing.AllocsPerRun(2, func() {
			g, err := NewFresh(set, forest, 12, 0)
			if err != nil {
				t.Fatal(err)
			}
			for buf = g.Next(buf[:0], 60); len(buf) > 0; buf = g.Next(buf[:0], 60) {
				pairs += len(buf)
			}
		}) - newAllocs[i]
		if pairs == 0 {
			t.Fatalf("n=%d: workload generated no pairs", n)
		}
	}
	// The 500-EST forest has thousands of trees: any per-tree or per-node
	// allocation breaks the bound.
	if newAllocs[0] > 16 || newAllocs[1] > 16 {
		t.Errorf("NewFresh allocations %v for 50 and 500 ESTs, want <= 16 for both", newAllocs)
	}
	// itemsBuf and groups double as they grow: a few dozen appends at most.
	if drainAllocs[0] > 40 || drainAllocs[1] > 40 {
		t.Errorf("full drain allocations %v for 50 and 500 ESTs, want <= 40", drainAllocs)
	}
}

func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := randomESTs(rng, 1, 2000, 2000)[0]
	ests := make([]seq.Sequence, 60)
	for i := range ests {
		start := rng.Intn(1400)
		ests[i] = base[start : start+500].Clone()
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		b.Fatal(err)
	}
	forest := buildForest(b, set, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := New(set, forest, 20)
		if err != nil {
			b.Fatal(err)
		}
		drain(g, 64)
	}
}

// Fresh-only mode over the union forest must emit exactly the full run's
// pairs that involve at least one fresh string — same tuples, same order —
// while suppressing every old×old pair (Lemmas 1–4: an old pair's maximal
// common substring was already produced by the run that introduced it).
func TestFreshModeEmitsExactlyFreshPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 6; trial++ {
		old := randomESTs(rng, 5+rng.Intn(4), 40, 80)
		// Plant overlaps inside the old batch so stale pairs exist.
		old[1] = append(old[0][10:].Clone(), old[1][:20]...)
		old[3] = old[2][5:min32(40, len(old[2]))].ReverseComplement()
		fresh := randomESTs(rng, 2+rng.Intn(3), 40, 80)
		// Plant overlaps across the generation boundary.
		fresh[0] = append(old[0][15:].Clone(), fresh[0][:20]...)
		fresh[1] = old[1][5:min32(40, len(old[1]))].ReverseComplement()

		set, err := seq.NewSetS(old)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := set.Append(fresh)
		if err != nil {
			t.Fatal(err)
		}
		forest := buildForest(t, set, 6)
		full, err := New(set, forest, 12)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewFresh(set, forest, 12, gen)
		if err != nil {
			t.Fatal(err)
		}
		allPairs := drain(full, 17)
		freshPairs := drain(inc, 17)

		freshID := set.GenStartString(gen)
		var want []Pair
		for _, p := range allPairs {
			if p.S1 >= freshID || p.S2 >= freshID {
				want = append(want, p)
			}
		}
		if len(freshPairs) != len(want) {
			t.Fatalf("trial %d: fresh mode emitted %d pairs, want %d", trial, len(freshPairs), len(want))
		}
		for i := range want {
			if freshPairs[i] != want[i] {
				t.Fatalf("trial %d: pair %d: got %+v want %+v", trial, i, freshPairs[i], want[i])
			}
			if freshPairs[i].S1 < freshID && freshPairs[i].S2 < freshID {
				t.Fatalf("trial %d: stale pair leaked: %+v", trial, freshPairs[i])
			}
		}
		if len(allPairs) > len(freshPairs) {
			// Stale pairs exist; the generator must have strictly less work
			// recorded as Generated, accounted between the group-level skip
			// and the per-pair stale counter.
			if inc.Stats().Generated >= full.Stats().Generated {
				t.Fatalf("trial %d: fresh mode did not reduce Generated: %d vs %d",
					trial, inc.Stats().Generated, full.Stats().Generated)
			}
		}
	}
}

// fresh == 0 must behave exactly like New (zero-overhead full mode).
func TestFreshZeroEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ests := randomESTs(rng, 8, 40, 80)
	ests[1] = append(ests[0][10:].Clone(), ests[1][:20]...)
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	forest := buildForest(t, set, 6)
	g1, _ := New(set, forest, 12)
	g2, _ := NewFresh(set, forest, 12, 0)
	a, b := drain(g1, 8), drain(g2, 8)
	if len(a) != len(b) {
		t.Fatalf("count mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if g2.Stats().DiscardedStale != 0 {
		t.Errorf("full mode discarded %d pairs as stale", g2.Stats().DiscardedStale)
	}
}

// The stale counter must account per-pair suppression inside mixed group
// pairs (group-level skips are not counted — they never materialize pairs).
func TestDiscardedStaleCounted(t *testing.T) {
	// The fresh string shares left-extension character ('A') and the two
	// characters after the core with old string 0, so both land in the same
	// (child, char) group at the core's node — a mixed group. Pairing that
	// group against old string 1's group materializes the stale pair (0,1),
	// which must be counted, and the fresh pair (fresh,1), which must emit.
	core := "ACGTTGCAACGTTGCA"
	set := mustSet(t,
		"AAAA"+core+"TTTT",
		"CCCC"+core+"GGGG")
	fresh := []seq.Sequence{mustParseSeq(t, "AAAA"+core+"TTAA")}
	gen, err := set.Append(fresh)
	if err != nil {
		t.Fatal(err)
	}
	forest := buildForest(t, set, 4)
	inc, err := NewFresh(set, forest, 8, gen)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(inc, 16)
	freshID := set.GenStartString(gen)
	for _, p := range pairs {
		if p.S1 < freshID && p.S2 < freshID {
			t.Fatalf("stale pair emitted: %+v", p)
		}
	}
	st := inc.Stats()
	if st.DiscardedStale == 0 {
		t.Error("expected DiscardedStale > 0 for mixed groups over a shared core")
	}
}

func mustParseSeq(t testing.TB, s string) seq.Sequence {
	t.Helper()
	q, err := seq.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
