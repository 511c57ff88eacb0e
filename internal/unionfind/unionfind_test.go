package unionfind

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Count() != 5 || len(u.parent) != 5 {
		t.Fatalf("counts: %d %d", u.Count(), len(u.parent))
	}
	for i := int32(0); i < 5; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d", i, u.Find(i))
		}
	}
}

func TestUnionBasics(t *testing.T) {
	u := New(4)
	if !u.Union(0, 1) {
		t.Error("first union must merge")
	}
	if u.Union(1, 0) {
		t.Error("repeat union must not merge")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Error("Same wrong")
	}
	if u.Count() != 3 {
		t.Errorf("count = %d, want 3", u.Count())
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Count() != 1 {
		t.Errorf("count = %d, want 1", u.Count())
	}
	if !u.Same(1, 2) {
		t.Error("transitivity broken")
	}
}

func TestClusters(t *testing.T) {
	u := New(5)
	u.Union(0, 2)
	u.Union(3, 4)
	if got, want := u.Labels(), []int32{0, 1, 0, 2, 2}; !slices.Equal(got, want) || u.Count() != 3 {
		t.Errorf("partition %v in %d clusters, want %v in 3", got, u.Count(), want)
	}
}

func TestLabelsDense(t *testing.T) {
	u := New(6)
	u.Union(1, 2)
	u.Union(4, 5)
	l := u.Labels()
	if len(l) != 6 {
		t.Fatal("length")
	}
	if l[1] != l[2] || l[4] != l[5] {
		t.Error("merged elements must share labels")
	}
	if l[0] == l[1] || l[3] == l[4] || l[0] == l[3] {
		t.Error("separate elements must differ")
	}
	// Dense: max label == count-1.
	max := int32(0)
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	if int(max) != u.Count()-1 {
		t.Errorf("labels not dense: max %d count %d", max, u.Count())
	}
}

// Property: union-find partition matches a brute-force connectivity oracle.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		u := New(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for e := 0; e < n; e++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			u.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Transitive closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !adj[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Same(int32(i), int32(j)) != adj[i][j] {
					t.Fatalf("trial %d: Same(%d,%d) mismatch", trial, i, j)
				}
			}
		}
	}
}

// Property: count always equals the number of distinct representatives.
func TestCountInvariant(t *testing.T) {
	f := func(pairs []uint16) bool {
		u := New(64)
		for _, p := range pairs {
			u.Union(int32(p%64), int32((p>>8)%64))
		}
		reps := map[int32]bool{}
		for i := int32(0); i < 64; i++ {
			reps[u.Find(i)] = true
		}
		return len(reps) == u.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLabelsAllocatesOnlyItsResult: the dense relabeling runs in place over
// the returned slice, with no root→label map.
func TestLabelsAllocatesOnlyItsResult(t *testing.T) {
	u := New(128)
	for i := int32(0); i < 127; i += 3 {
		u.Union(i, i+1)
	}
	if allocs := testing.AllocsPerRun(20, func() { u.Labels() }); allocs != 1 {
		t.Errorf("Labels allocated %v times, want 1", allocs)
	}
}

// TestFindAllocFree: Find is allocation-free (iterative, no recursion or
// visited stack), including on long chains.
func TestFindAllocFree(t *testing.T) {
	u := New(1 << 12)
	for i := int32(1); i < 1<<12; i++ {
		u.Union(i-1, i)
	}
	if allocs := testing.AllocsPerRun(100, func() { u.Find(1<<12 - 1) }); allocs != 0 {
		t.Fatalf("Find allocated %v times", allocs)
	}
}

// TestConcurrentUnions: goroutines applying shuffled copies of one edge list
// at once, with Same and Find racing the links, leave the partition one
// goroutine leaves, a count equal to the roots, and only links down.
func TestConcurrentUnions(t *testing.T) {
	const n, workers = 20000, 4
	rng := rand.New(rand.NewSource(36))
	edges := make([][2]int32, 3*n/2)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	want := New(n)
	for _, e := range edges {
		want.Union(e[0], e[1])
	}
	for round := 0; round < 10; round++ {
		u := New(n)
		var merges atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{}) // releases every goroutine at once
		for w := 0; w < workers; w++ {
			mine := slices.Clone(edges)
			rand.New(rand.NewSource(int64(round*workers+w))).Shuffle(len(mine), func(i, j int) {
				mine[i], mine[j] = mine[j], mine[i]
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, e := range mine {
					if !u.Same(e[0], e[1]) && u.Union(e[0], e[1]) {
						merges.Add(1)
					}
					u.Find(e[1])
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := u.Labels(); !slices.Equal(got, want.Labels()) {
			t.Fatalf("round %d: labels differ from one goroutine's", round)
		}
		roots := 0
		for x := range u.parent {
			p := u.parent[x].Load()
			if p == int32(x) {
				roots++
			} else if p > int32(x) {
				t.Fatalf("round %d: parent[%d] = %d links up", round, x, p)
			}
		}
		if u.Count() != roots || u.Count() != want.Count() || merges.Load() != int64(n-roots) {
			t.Fatalf("round %d: count %d, %d roots, %d merges; one goroutine counts %d",
				round, u.Count(), roots, merges.Load(), want.Count())
		}
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 100000
	ops := make([][2]int32, n)
	for i := range ops {
		ops[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := New(n)
		for _, op := range ops {
			u.Union(op[0], op[1])
		}
	}
}
