package fanout

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"pace/internal/testutil"
)

// Cuts tiles [0,n) with at most parts non-empty chunks, and no chunk but the
// last outweighs its share of the total by more than its last item.
func TestCutsTileTheItems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n, parts := rng.Intn(40), 1+rng.Intn(10)
		w := make([]int, n)
		total := 0
		for i := range w {
			if rng.Intn(4) > 0 { // some items weigh nothing, like empty buckets
				w[i] = rng.Intn(100)
			}
			total += w[i]
		}
		cuts := Cuts(n, parts, func(i int) int { return w[i] })
		if cuts[0] != 0 || cuts[len(cuts)-1] != n || len(cuts) < 2 || len(cuts)-1 > max(1, min(parts, n)) {
			t.Fatalf("n=%d parts=%d: cuts %v", n, parts, cuts)
		}
		parts = min(parts, n) // no more parts than items: the shares are of this many
		acc := 0
		for k := 1; k < len(cuts); k++ {
			if n > 0 && cuts[k] <= cuts[k-1] {
				t.Fatalf("n=%d parts=%d: empty chunk %d in %v", n, parts, k-1, cuts)
			}
			for i := cuts[k-1]; i < cuts[k]; i++ {
				acc += w[i]
			}
			// A chunk of one item may follow an item heavy enough to cross two
			// shares; a longer one must close as soon as it holds its share.
			if k+1 < len(cuts) && cuts[k]-cuts[k-1] > 1 && (acc-w[cuts[k]-1])*parts >= total*k {
				t.Fatalf("n=%d parts=%d weights %v: chunk %d closed one item late at %v", n, parts, w, k-1, cuts)
			}
		}
	}
	if got := Cuts(0, 4, nil); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("no items: cuts %v, want one empty chunk", got)
	}
	// Equal weights split evenly.
	if got := Cuts(8, 4, func(int) int { return 1 }); len(got) != 5 || got[1] != 2 || got[2] != 4 || got[3] != 6 {
		t.Errorf("8 unit items in 4 parts: cuts %v", got)
	}
}

// Run calls every chunk exactly once, the first on the caller's goroutine,
// and returns only after the last call has, with the lowest-numbered chunk's
// error: the leak guard sees no goroutine outlive it, failing or not. With no
// chunks it calls nothing.
func TestRunCallsEveryChunkOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, chunks := range []int{1, 2, 3, 8} {
		for _, failing := range [][]int{nil, {chunks - 1}, {chunks / 2, chunks - 1}} {
			calls := make([]atomic.Int32, chunks)
			err := Run(chunks, func(k int) error {
				calls[k].Add(1)
				if slices.Contains(failing, k) {
					return fmt.Errorf("chunk %d", k)
				}
				return nil
			})
			for k := range calls {
				if n := calls[k].Load(); n != 1 {
					t.Errorf("chunks=%d failing=%v: chunk %d called %d times", chunks, failing, k, n)
				}
			}
			want := "<nil>"
			if len(failing) > 0 {
				want = fmt.Sprintf("chunk %d", failing[0])
			}
			if fmt.Sprint(err) != want {
				t.Errorf("chunks=%d failing=%v: error %v, want %s", chunks, failing, err, want)
			}
		}
	}
	// No chunks, as an empty round has, calls nothing and fails nothing.
	for _, chunks := range []int{0, -1} {
		if err := Run(chunks, func(k int) error {
			t.Errorf("chunks=%d: chunk %d called", chunks, k)
			return nil
		}); err != nil {
			t.Errorf("chunks=%d: error %v, want nil", chunks, err)
		}
	}
	// One chunk starts no goroutine.
	before, during := runtime.NumGoroutine(), 0
	_ = Run(1, func(int) error {
		during = runtime.NumGoroutine()
		return nil
	})
	if during != before {
		t.Errorf("a single chunk ran with %d goroutines live, %d before Run", during, before)
	}
}
