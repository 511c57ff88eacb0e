// Package suffix implements the paper's §3.1: construction of a distributed
// Generalized Suffix Tree (GST) over the 2n strings of a SetS.
//
// Suffixes are partitioned into |Σ|^w buckets by their first w characters;
// each bucket's suffixes form an independent subtree of the conceptual GST
// (the top portion of the GST, with string-depth < w, is never materialized).
// Buckets are assigned to workers by a load-balancing heuristic, and each
// subtree is built by recursive character-wise bucketing. The paper stores a
// subtree as a depth-first-search array of nodes; this package stores it as
// its leaves alone, the bucket's suffixes in suffix order, with one byte per
// suffix for its longest common prefix (LCP) with the one before, saturated
// at 255. That is the enhanced-suffix-array view of a tree (Abouelhoda,
// Kurtz & Ohlebusch, 2004): an internal node is an LCP interval and its
// children split where the LCP equals its depth, so a node's string-depth,
// leaf range and child boundaries — everything pair generation reads — come
// from 5 bytes per suffix, its int32 position in the set's text and the LCP
// byte, and no node is ever written.
//
// The partition (table.go) is a counting sort into one Buckets table —
// every suffix in a single slice grouped by bucket, with an offset per
// bucket — filled by a counting scan and a scattering scan over the strings.
// Every collector only lays suffixes out, in position order, which is
// (string id, offset) order, behind each bucket's ordered front, with its
// next four characters (look-ahead code) in its LCP byte, read by the scan
// that finds its bucket. The build (tree.go) orders them: two stable 16-way
// passes sort by code, which orders suffixes whose codes differ without a
// string read, and each run of equal code is sorted on fetched keys from the
// depth its code settles: each member's next characters packed into one
// word, with how many come before its end and its index in its group, one
// sort per group and a recursion on the runs that share a whole key,
// emitting leaves and their LCPs as it goes. Every read is of the text at a
// position plus a depth, and a λ there ends the suffix, so no pass asks
// which string a suffix belongs to. The sorted suffixes are copied in, or
// merged with what a session's earlier batches ordered. The result is
// canonical: the code passes are stable and a key's lowest bits are the
// member's index, so equal suffixes keep position order and equal tables
// order into equal buckets whichever collector filled them.
// Buckets are independent, so BuildBuckets orders chunks of them
// concurrently, a builder per chunk.
package suffix

import (
	"fmt"
	"sort"

	"pace/internal/seq"
)

// MaxWindow bounds the bucket-prefix width: 4^12 = 16M buckets is already far
// beyond what load balancing needs.
const MaxWindow = 12

// NumBuckets returns 4^w.
func NumBuckets(w int) int { return 1 << (2 * w) }

// ValidateWindow checks the bucket width.
func ValidateWindow(w int) error {
	if w < 1 || w > MaxWindow {
		return fmt.Errorf("suffix: window %d out of [1,%d]", w, MaxWindow)
	}
	return nil
}

// BucketEach calls fn(bucket, pos) for every suffix of s that is at least w
// characters long, where bucket encodes the suffix's first w characters in
// base 4 (most significant character first). It uses a rolling encoding, so
// the scan is O(len(s)).
func BucketEach(s seq.Sequence, w int, fn func(bucket int, pos int32)) {
	if len(s) < w {
		return
	}
	mask := NumBuckets(w) - 1
	id := 0
	for i := 0; i < len(s); i++ {
		id = (id<<2 | int(s[i])) & mask
		if i >= w-1 {
			fn(id, int32(i-w+1))
		}
	}
}

// Histogram counts, for the strings ids in [lo,hi), how many suffixes fall in
// each bucket. It is the per-processor contribution that the parallel layer
// sums with an allreduce.
func Histogram(set *seq.SetS, w int, lo, hi seq.StringID) []int64 {
	hist := make([]int64, NumBuckets(w))
	for id := lo; id < hi; id++ {
		BucketEach(set.Str(id), w, func(b int, _ int32) { hist[b]++ })
	}
	return hist
}

// Assign maps each non-empty bucket to one of p workers such that worker
// loads (total suffixes) are near-balanced: buckets are taken in decreasing
// size order and each goes to the currently least-loaded worker (LPT).
// Empty buckets map to -1.
func Assign(hist []int64, p int) []int32 {
	if p < 1 {
		p = 1
	}
	type bkt struct {
		id   int
		size int64
	}
	var nonEmpty []bkt
	for id, size := range hist {
		if size > 0 {
			nonEmpty = append(nonEmpty, bkt{id, size})
		}
	}
	sort.Slice(nonEmpty, func(i, j int) bool {
		if nonEmpty[i].size != nonEmpty[j].size {
			return nonEmpty[i].size > nonEmpty[j].size
		}
		return nonEmpty[i].id < nonEmpty[j].id
	})
	owner := make([]int32, len(hist))
	for i := range owner {
		owner[i] = -1
	}
	loads := make([]int64, p)
	for _, b := range nonEmpty {
		best := 0
		for w := 1; w < p; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		owner[b.id] = int32(best)
		loads[best] += b.size
	}
	return owner
}

// AssignFresh is Assign restricted to the buckets a new batch touches:
// buckets with no fresh suffix map to -1 even when non-empty, so untouched
// subtrees are neither collected nor rebuilt (their pairs were all judged in
// earlier generations). Touched buckets are balanced by their total (old +
// fresh) size, which is what the rebuild costs.
func AssignFresh(hist, freshHist []int64, p int) []int32 {
	masked := make([]int64, len(hist))
	for b, f := range freshHist {
		if f > 0 {
			masked[b] = hist[b]
		}
	}
	return Assign(masked, p)
}

// Loads returns the per-worker suffix totals implied by an assignment.
func Loads(hist []int64, owner []int32, p int) []int64 {
	loads := make([]int64, p)
	for b, o := range owner {
		if o >= 0 {
			loads[o] += hist[b]
		}
	}
	return loads
}

// Skew is the redistribution load-balance figure of merit: the maximum
// worker load divided by the mean load. 1.0 is perfect balance; the paper's
// LPT heuristic keeps it near 1 for realistic bucket histograms. Zero total
// load returns 0.
func Skew(loads []int64) float64 {
	var total, maxLoad int64
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total == 0 || len(loads) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(loads))
	return float64(maxLoad) / mean
}
