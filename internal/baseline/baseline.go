// Package baseline implements the comparator architectures the paper
// measures PaCE against.
//
// AllPairs stands in for the CAP3/Phrap/TIGR-Assembler class of tools
// (paper Table 1): it materializes every candidate pair up front — the
// memory-intensive phase that made those tools un-runnable at 81,414 ESTs in
// 512 MB — and then aligns the pairs in arbitrary order with full (unbanded,
// unanchored) overlap dynamic programming, the time-intensive phase.
//
// ArbitraryOrder isolates one design decision of PaCE: it uses the identical
// suffix-tree pair generator and anchored banded alignment, but processes
// the pairs in arbitrary instead of decreasing maximal-common-substring
// order, which degrades the effectiveness of the cluster-aware pair skipping
// (Figure 7's point).
package baseline

import (
	"math/rand"
	"time"

	"pace/internal/align"
	"pace/internal/cluster"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// Options configures a baseline run. Window, ψ, scoring, acceptance
// criteria and band are the engine's (cluster.DefaultConfig), so the
// comparators differ from PaCE only in pair order and aligner.
type Options struct {
	Seed int64 // shuffle seed
	// MemoryBudgetPairs aborts a run when the materialized pair list
	// exceeds this count (0 = unlimited) — modeling Table 1's 'X' entries
	// where 512 MB was insufficient.
	MemoryBudgetPairs int64
}

// Result is a baseline run's outcome.
type Result struct {
	// Labels is the per-EST cluster labeling (nil if the run aborted).
	Labels []int32
	// NumClusters is the cluster count.
	NumClusters int
	// PairsMaterialized is the peak size of the up-front pair list.
	PairsMaterialized int64
	// PairBytes is the memory the materialized list occupies (20 bytes a
	// pair, as on the wire) — the Table 1 memory axis.
	PairBytes int64
	// PairsProcessed / PairsAccepted mirror the engine counters.
	PairsProcessed int64
	PairsAccepted  int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// OutOfMemory marks a run that exceeded MemoryBudgetPairs
	// (Table 1's 'X').
	OutOfMemory bool
}

// generateAll drains the suffix-tree pair generator into one list — the
// batch architecture's memory-intensive phase.
func generateAll(set *seq.SetS, cfg cluster.Config, budget int64) ([]pairgen.Pair, bool, error) {
	hi := seq.StringID(set.NumStrings())
	owner := suffix.Assign(suffix.Histogram(set, cfg.Window, 0, hi), 1)
	byBucket := suffix.CollectOwned(set, cfg.Window, owner, 0, 0, hi)
	forest, err := suffix.BuildBuckets(set, byBucket, byBucket.NonEmpty(), 1)
	if err != nil {
		return nil, false, err
	}
	gen, err := pairgen.NewFresh(set, forest, cfg.Psi, 0)
	if err != nil {
		return nil, false, err
	}
	var all []pairgen.Pair
	for {
		n := len(all)
		all = gen.Next(all, 4096)
		if len(all) == n {
			return all, false, nil
		}
		if budget > 0 && int64(len(all)) > budget {
			return all, true, nil
		}
	}
}

// aligner aligns one pair of strings; p locates the pair's maximal common
// substring for an anchored aligner.
type aligner func(s1, s2 seq.Sequence, p pairgen.Pair) (align.Result, error)

// run is the comparators' one pipeline: materialize every pair, shuffle the
// list with the seed, and align each pair whose ESTs are not yet joined,
// joining them when the alignment passes cfg's criteria.
func run(ests []seq.Sequence, opts Options, cfg cluster.Config, aln aligner) (*Result, error) {
	start := time.Now()
	set, err := seq.NewSetS(ests)
	if err != nil {
		return nil, err
	}
	pairs, oom, err := generateAll(set, cfg, opts.MemoryBudgetPairs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		PairsMaterialized: int64(len(pairs)),
		PairBytes:         20 * int64(len(pairs)),
	}
	if oom {
		res.OutOfMemory = true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	uf := unionfind.New(set.NumESTs())
	for _, p := range pairs {
		i, j := p.ESTs()
		if uf.Same(int32(i), int32(j)) {
			continue
		}
		r, err := aln(set.Str(p.S1), set.Str(p.S2), p)
		if err != nil {
			return nil, err
		}
		res.PairsProcessed++
		if r.Accept(cfg.Scoring, cfg.Criteria) {
			res.PairsAccepted++
			uf.Union(int32(i), int32(j))
		}
	}
	res.Labels = uf.Labels()
	res.NumClusters = uf.Count()
	res.Elapsed = time.Since(start)
	return res, nil
}

// AllPairs is the batch comparator: materialize all pairs, then align each
// surviving pair with full overlap dynamic programming.
func AllPairs(ests []seq.Sequence, opts Options) (*Result, error) {
	cfg := cluster.DefaultConfig(1)
	return run(ests, opts, cfg, func(s1, s2 seq.Sequence, _ pairgen.Pair) (align.Result, error) {
		ov := align.Overlap(s1, s2, cfg.Scoring)
		return align.Result{Stats: ov.Stats, Pattern: ov.Pattern}, nil
	})
}

// ArbitraryOrder is the pair-order ablation: PaCE's generator and anchored
// banded aligner, but pairs shuffled before processing.
func ArbitraryOrder(ests []seq.Sequence, opts Options) (*Result, error) {
	cfg := cluster.DefaultConfig(1)
	ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
	if err != nil {
		return nil, err
	}
	return run(ests, opts, cfg, func(s1, s2 seq.Sequence, p pairgen.Pair) (align.Result, error) {
		return ext.Extend(s1, s2, p.Pos1, p.Pos2, p.MatchLen)
	})
}
