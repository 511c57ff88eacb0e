// Package unionfind implements the disjoint-set (union-find) structure from
// Tarjan's analysis, used by the master processor to maintain the EST
// clusters (the paper's CLUSTERS buffer). Find and Union run in amortized
// inverse-Ackermann time via path compression and union by rank.
package unionfind

// UF is a disjoint-set forest over the integers [0, n).
type UF struct {
	parent []int32
	rank   []uint8
	count  int // number of disjoint sets
}

// New creates n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
		count:  n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Count returns the current number of disjoint sets.
func (u *UF) Count() int { return u.count }

// Find returns the representative of x's set. It compresses by iterative
// path halving — every visited node is re-pointed at its grandparent — which
// keeps the amortized inverse-Ackermann bound of two-pass compression in a
// single allocation-free loop (no recursion, no visited stack), so the hot
// Same/Union filters stay allocation-free even under the race detector.
func (u *UF) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int32) bool { return u.Find(x) == u.Find(y) }

// Union merges the sets of x and y and reports whether a merge happened
// (false when they were already in the same set).
func (u *UF) Union(x, y int32) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	switch {
	case u.rank[rx] < u.rank[ry]:
		u.parent[rx] = ry
	case u.rank[rx] > u.rank[ry]:
		u.parent[ry] = rx
	default:
		u.parent[ry] = rx
		u.rank[rx]++
	}
	u.count--
	return true
}

// Clusters materializes the current partition as a map from representative to
// members. Member order within a cluster is ascending.
func (u *UF) Clusters() map[int32][]int32 {
	out := make(map[int32][]int32)
	for i := range u.parent {
		r := u.Find(int32(i))
		out[r] = append(out[r], int32(i))
	}
	return out
}

// Labels returns, for each element, a dense cluster label in [0, Count()).
// Labels are assigned in order of first appearance, so the output is
// deterministic for a given structure state.
func (u *UF) Labels() []int32 { return u.LabelsInto(nil) }

// LabelsInto is Labels writing into dst (reused when its capacity suffices),
// so per-phase label snapshots in hot loops stop allocating. It allocates
// nothing when cap(dst) >= Len(): the dense relabeling runs in place over
// dst using a sign-encoding pass instead of a root→label map. Pass 1 stores
// each element's root id in dst; pass 2 walks ascending and, at the first
// member of each set, stamps a new label (encoded negative) over the root's
// own slot so later members find it without a map; pass 3 flips the
// encoding.
func (u *UF) LabelsInto(dst []int32) []int32 {
	n := len(u.parent)
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
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
