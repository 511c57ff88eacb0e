package cluster

import (
	"fmt"
	"runtime"

	"pace/internal/seq"
	"pace/internal/suffix"
)

// Incremental batch ingest: the session layer appends a batch of ESTs to a
// SetS (a new generation), seeds the union-find with the previous partition
// (Config.InitialLabels), and re-runs the pipeline on the set. A run's fresh
// generation is the set's newest (freshGen); a set of one generation is a
// full run. Only the buckets the batch's suffixes fall into are (re)built,
// and inside them only pairs involving a fresh string are generated; a
// pair's maximal common substring depends on the two strings alone, so
// every suppressed old×old pair was already produced and judged by an
// earlier run, and the final partition is identical to a from-scratch run
// over the union.

// BucketCache carries the suffix table across the sequential runs of a
// session: every suffix seen so far in one suffix.Buckets, each bucket in
// suffix order with one LCP byte per suffix. A batch's strings are scanned
// once and laid out behind the buckets they touch; the run's construction
// phase orders them in, and only those buckets are read. A bucket a batch
// does not touch cannot yield a fresh pair and is not read at all.
//
// The cache is single-goroutine state owned by its session; it is not safe
// for concurrent runs.
type BucketCache struct {
	w       int
	scanned seq.StringID
	table   *suffix.Buckets // nil until the first absorb fixes the window
	set     *seq.SetS       // the set absorbed last, whose text the table indexes
}

// NewBucketCache returns an empty cache, ready to be carried across a
// session's runs via Config.Cache.
func NewBucketCache() *BucketCache { return &BucketCache{} }

// absorb lays the suffixes of strings [bc.scanned, hi) out in the table and
// returns, in ascending order, the ids of buckets that received any.
func (bc *BucketCache) absorb(set *seq.SetS, w int, hi seq.StringID) ([]int32, error) {
	if bc.w == 0 {
		bc.w = w
		bc.table = suffix.NewBuckets(w)
	}
	if bc.w != w {
		return nil, fmt.Errorf("cluster: bucket cache was built with window %d, run uses %d", bc.w, w)
	}
	if hi < bc.scanned {
		return nil, fmt.Errorf("cluster: bucket cache covers %d strings but the run has only %d", bc.scanned, hi)
	}
	// The sequential engine's rankWorkers: every core.
	touched, err := bc.table.Absorb(set, bc.scanned, hi, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	bc.scanned, bc.set = hi, set
	return touched, nil
}

// Truncate rolls the cache back so it covers only strings with id < hi —
// the inverse of absorb for a failed batch run, whether it failed before or
// after ordering the batch: the table is left equal to one that never saw
// the dropped strings, so the retried batch orders the same buckets a first
// attempt would. A no-op when hi >= the scanned high mark.
func (bc *BucketCache) Truncate(hi seq.StringID) {
	if hi >= bc.scanned {
		return
	}
	bc.table.Truncate(bc.set.Start(hi))
	bc.scanned = hi
}

// Warm scans every string of set into the cache and orders every bucket —
// the state a resumed session needs so that its next batch orders only the
// buckets the batch touches.
func (bc *BucketCache) Warm(set *seq.SetS, w int) error {
	if _, err := bc.absorb(set, w, seq.StringID(set.NumStrings())); err != nil {
		return err
	}
	_, err := suffix.BuildBuckets(set, bc.table, bc.table.NonEmpty(), runtime.GOMAXPROCS(0))
	return err
}

// sequentialTable is the sequential engine's partition phase. It lays out
// the strings the bucket table has not seen — every string without a Cache —
// and returns the table and the ids, ascending, of the buckets they touched:
// the buckets to order and read. A bucket the fresh strings do not touch
// cannot contain a fresh pair, so it is never ordered; in a run-local table
// every non-empty bucket is touched, and the generator's fresh threshold
// alone keeps old×old pairs out.
func sequentialTable(set *seq.SetS, cfg Config) (*suffix.Buckets, []int32, error) {
	bc := cfg.Cache
	if bc == nil {
		bc = NewBucketCache()
	}
	touched, err := bc.absorb(set, cfg.Window, seq.StringID(set.NumStrings()))
	if err != nil {
		return nil, nil, err
	}
	return bc.table, touched, nil
}

// freshGen is the run's fresh generation: the set's newest. Only pairs with
// a string of that generation are generated; 0 means every pair.
func freshGen(set *seq.SetS) seq.Gen { return seq.Gen(set.NumGenerations() - 1) }

func nonEmptyBuckets(hist []int64) int64 {
	var n int64
	for _, h := range hist {
		if h > 0 {
			n++
		}
	}
	return n
}

// CheckpointFromLabels builds a checkpoint snapshot from a finished
// partition — what a session persists between batch runs, reusing the
// PACECKPT machinery (atomic write, CRC, run fingerprint).
func CheckpointFromLabels(numESTs, window, psi int, labels []int32) (*Checkpoint, error) {
	if len(labels) != numESTs {
		return nil, fmt.Errorf("cluster: %d labels for %d ESTs", len(labels), numESTs)
	}
	uf, err := newClusters(Config{InitialLabels: labels}, numESTs)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		NumESTs: numESTs, Window: window, Psi: psi,
		Merges: int64(numESTs - uf.Count()), UF: uf,
	}, nil
}

// RunSet clusters a prebuilt SetS. It is Run for callers that manage the
// sequence set themselves — a session appending generations between runs —
// and the entry point that understands Config.Cache. Only pairs involving
// the set's newest generation are generated (freshGen).
func RunSet(set *seq.SetS, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cache != nil && freshGen(set) == 0 && cfg.Cache.scanned > 0 {
		// A full run over a warm cache would hand the generator only the
		// touched buckets and silently drop every pair in the rest.
		return nil, fmt.Errorf("cluster: full run over a non-empty cache; append the batch to the set as a new generation")
	}
	if cfg.MP.Procs == 1 {
		return runSequential(set, cfg, rankWorkers(cfg))
	}
	return runParallel(set, cfg)
}
