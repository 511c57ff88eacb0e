// Package unionfind implements the disjoint-set (union-find) structure from
// Tarjan's analysis, used to maintain the EST clusters (the paper's CLUSTERS
// buffer). Find, Same and Union are safe for concurrent use: every parent
// entry is atomic, Union links one root under another with a compare-and-
// swap, always the larger root under the smaller (union by minimum), and
// Find compresses by path halving with compare-and-swaps. So every link
// Union makes satisfies parent[x] < x, and concurrent links cannot close a
// cycle. With one goroutine the structure is the sequential one, and Same and
// Union answer from the partition alone, whatever the layout of the trees.
package unionfind

import "sync/atomic"

// UF is a disjoint-set forest over the integers [0, n).
type UF struct {
	parent []atomic.Int32
	count  atomic.Int64 // number of disjoint sets
}

// New creates n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]atomic.Int32, n)}
	u.count.Store(int64(n))
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
	return u
}

// Count returns the current number of disjoint sets.
func (u *UF) Count() int { return int(u.count.Load()) }

// Find returns the representative of x's set. It compresses by iterative
// path halving — every visited node is re-pointed at its grandparent — which
// keeps the amortized inverse-Ackermann bound of two-pass compression in a
// single allocation-free loop. A node that is not a root never becomes one
// again, and its grandparent stays in its set, so a halving that loses its
// compare-and-swap to another goroutine's is simply skipped.
func (u *UF) Find(x int32) int32 {
	for {
		p := u.parent[x].Load()
		if p == x {
			return x
		}
		g := u.parent[p].Load()
		if g == p {
			return p
		}
		u.parent[x].CompareAndSwap(p, g)
		x = g
	}
}

// Same reports whether x and y are in the same set. Under concurrent Unions
// the answer holds at one instant of the call: roots found apart are apart
// only if the first is still a root once the second is found.
func (u *UF) Same(x, y int32) bool {
	for {
		rx, ry := u.Find(x), u.Find(y)
		if rx == ry {
			return true
		}
		if u.parent[rx].Load() == rx {
			return false
		}
	}
}

// Union merges the sets of x and y and reports whether a merge happened
// (false when they were already in the same set). The larger root is hung
// under the smaller; a link that loses its root to another goroutine's link
// retries from the new roots.
func (u *UF) Union(x, y int32) bool {
	for {
		rx, ry := u.Find(x), u.Find(y)
		if rx == ry {
			return false
		}
		if rx < ry {
			rx, ry = ry, rx
		}
		if u.parent[rx].CompareAndSwap(rx, ry) {
			u.count.Add(-1)
			return true
		}
	}
}

// Labels returns, for each element, a dense cluster label in [0, Count()).
// Labels are assigned in order of first appearance, so the output is
// deterministic for a given structure state. The result is its only
// allocation: the dense relabeling runs in place over it using a
// sign-encoding pass instead of a root→label map. Pass 1 stores each
// element's root id; pass 2 walks ascending and, at the first member of each
// set, stamps a new label (encoded negative) over the root's own slot so
// later members find it without a map; pass 3 flips the encoding.
func (u *UF) Labels() []int32 {
	n := len(u.parent)
	dst := make([]int32, n)
	for i := 0; i < n; i++ {
		dst[i] = u.Find(int32(i))
	}
	next := int32(0)
	for i := 0; i < n; i++ {
		r := dst[i]
		if r < 0 {
			continue // i is a root already relabeled via an earlier member
		}
		if enc := dst[r]; enc < 0 {
			dst[i] = enc
		} else {
			e := -next - 1
			next++
			dst[r] = e
			dst[i] = e
		}
	}
	for i := 0; i < n; i++ {
		dst[i] = -dst[i] - 1
	}
	return dst
}
