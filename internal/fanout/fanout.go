// Package fanout runs a pass over a sequence of independent items on several
// goroutines: the items are cut into contiguous chunks of near-equal weight,
// and one call per chunk runs concurrently with the others. Every rank
// builds its forest and sets up its pair generators this way: the sequential
// engine on every core, a slave of the real transport on its share of them
// (DESIGN.md §1). Because the chunks are contiguous, each item's output still
// lands where a single pass over the items would put it, so the result does
// not depend on the number of chunks.
package fanout

import "sync"

// Cuts splits items [0,n) into at most parts contiguous, non-empty chunks of
// near-equal total weight: chunk k is items [cuts[k], cuts[k+1]). A chunk
// closes at the first item that takes the running weight to its share of the
// total; one part reads no weight. n == 0 gives one empty chunk, so there is
// always a chunk to run.
func Cuts(n, parts int, weight func(i int) int) []int {
	parts = max(1, min(parts, n))
	cuts := make([]int, 1, parts+1)
	if parts > 1 {
		total := 0
		for i := 0; i < n; i++ {
			total += weight(i)
		}
		acc := 0
		for i := 0; i+1 < n && len(cuts) < parts; i++ {
			acc += weight(i)
			if acc*parts >= total*len(cuts) {
				cuts = append(cuts, i+1)
			}
		}
	}
	return append(cuts, n)
}

// Run calls fn(k) for every chunk k in [0,chunks) and returns once every call
// has, with the error of the lowest-numbered chunk that failed: the one a
// single pass over the chunks in order would meet first. Chunk 0 runs on the
// calling goroutine and each other chunk on a goroutine of its own, so a
// single chunk starts no goroutine and allocates nothing. No chunks, or a
// negative count, calls nothing and returns nil.
func Run(chunks int, fn func(k int) error) error {
	if chunks < 1 {
		return nil
	}
	if chunks == 1 {
		return fn(0)
	}
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for k := 1; k < chunks; k++ {
		go func() {
			defer wg.Done()
			errs[k] = fn(k)
		}()
	}
	errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
