package suffix

import (
	"math/rand"
	"testing"

	"pace/internal/seq"
)

func buildTestForest(t testing.TB, seed int64) ([]*Tree, *seq.SetS) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := randomSet(t, rng, 10, 30, 70)
	w := 4
	hi := seq.StringID(set.NumStrings())
	owner := Assign(Histogram(set, w, 0, hi), 1)
	m := CollectOwned(set, w, owner, 0, 0, hi)
	forest, err := BuildForest(set, m, w)
	if err != nil {
		t.Fatal(err)
	}
	return forest, set
}

func TestStats(t *testing.T) {
	forest, set := buildTestForest(t, 4)
	st := Stats(forest)
	if st.Trees != len(forest) {
		t.Errorf("trees %d", st.Trees)
	}
	if st.Nodes != st.Leaves+st.InternalNodes {
		t.Errorf("node split: %d != %d + %d", st.Nodes, st.Leaves, st.InternalNodes)
	}
	// Leaves == total suffixes of length >= w.
	var want int64
	for id := 0; id < set.NumStrings(); id++ {
		if l := len(set.Str(seq.StringID(id))); l >= 4 {
			want += int64(l - 4 + 1)
		}
	}
	if st.Leaves != want {
		t.Errorf("leaves %d want %d", st.Leaves, want)
	}
	// The node counts are the reference trees'.
	hi := seq.StringID(set.NumStrings())
	var nodes, longest int64
	for _, tr := range refForest(t, set, 4, Assign(Histogram(set, 4, 0, hi), 1), 0, hi) {
		nodes += int64(tr.Len())
	}
	for id := seq.StringID(0); id < hi; id++ {
		longest = max(longest, int64(len(set.Str(id))))
	}
	if st.Nodes != nodes {
		t.Errorf("nodes %d, the reference trees have %d", st.Nodes, nodes)
	}
	if int64(st.MaxDepth) != longest {
		t.Errorf("max depth %d, longest string %d", st.MaxDepth, longest)
	}
}
