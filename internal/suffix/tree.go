package suffix

import (
	"fmt"
	"math/bits"

	"pace/internal/fanout"
	"pace/internal/seq"
)

// Node is one GST node in the DFS-array representation (paper §3.1).
// Sixteen bytes per node: space linear in the input with a small constant.
type Node struct {
	// Depth is the node's string-depth (length of its path label).
	Depth int32
	// RML is the index of the rightmost leaf in the node's subtree.
	// A node is a leaf iff RML points to itself. The first child of an
	// internal node is the next array entry; the next sibling of a node
	// is the entry after its rightmost leaf (none if it shares RML with
	// its parent).
	RML int32
	// SID/Pos name a representative suffix in the node's subtree: the
	// node's path label is Str(SID)[Pos : Pos+Depth]. For a leaf this is
	// the leaf's own suffix.
	SID seq.StringID
	Pos int32
}

// Tree is one bucket's subtree of the conceptual GST, in preorder.
type Tree struct {
	// Bucket is the bucket id this subtree was built from.
	Bucket int
	// Nodes are the tree nodes in depth-first (preorder) order; Nodes[0]
	// is the subtree root.
	Nodes []Node
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// IsLeaf reports whether node i is a leaf.
func (t *Tree) IsLeaf(i int32) bool { return t.Nodes[i].RML == i }

// FirstChild returns the first child of internal node i.
func (t *Tree) FirstChild(i int32) int32 { return i + 1 }

// NextSibling returns the next sibling of node i under parent p, or -1.
func (t *Tree) NextSibling(i, p int32) int32 {
	if t.Nodes[i].RML == t.Nodes[p].RML {
		return -1
	}
	return t.Nodes[i].RML + 1
}

// Children appends the child indices of node i to buf and returns it.
func (t *Tree) Children(i int32, buf []int32) []int32 {
	if t.IsLeaf(i) {
		return buf
	}
	for c := t.FirstChild(i); c != -1; c = t.NextSibling(c, i) {
		buf = append(buf, c)
	}
	return buf
}

// PathLabel reconstructs the path label of node i from its representative
// suffix.
func (t *Tree) PathLabel(set *seq.SetS, i int32) seq.Sequence {
	n := t.Nodes[i]
	return set.Str(n.SID)[n.Pos : n.Pos+n.Depth]
}

// NumLeaves returns the number of leaves (i.e. suffixes) in the tree.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.IsLeaf(int32(i)) {
			c++
		}
	}
	return c
}

// slabNodes is the size of the node slabs a forest is written into: 64 Ki
// nodes, 1 MiB. A tree that needs more gets a slab of its own size.
const slabNodes = 1 << 16

// builder constructs bucket subtrees straight into node slabs. One builder
// serves a whole forest, so its scratch buffers and slabs are allocated a
// handful of times whatever the number of trees.
type builder struct {
	set *seq.SetS
	w   int32
	// slab is the current slab; the tree under construction is its tail from
	// base on, and node indices are relative to base.
	slab []Node
	base int
	// pending counts the suffixes of the trees still to be built, which
	// bounds the nodes the next slab can be asked to hold.
	pending int
	// work holds the bucket being built, partitioned in place level by
	// level; tmp is the source copy of the group a scatter is moving, and
	// cls the class (0 terminator, 1+c character c) of each of its suffixes.
	work, tmp []SuffixRef
	cls       []uint8
	// A non-nil order makes the builder sort: it writes no node, order gets
	// each leaf and lcps its LCP with the leaf before, seam, the depth of the
	// node whose next child it starts. stack holds sortedTree's open nodes.
	order []SuffixRef
	lcps  []uint8
	seam  int32
	stack []open
}

// newBuilder returns a builder for trees totalling pending suffixes, none
// larger than largest.
func newBuilder(set *seq.SetS, w, pending, largest int) *builder {
	return &builder{
		set: set, w: int32(w), pending: pending,
		work: make([]SuffixRef, largest),
		tmp:  make([]SuffixRef, largest),
		cls:  make([]uint8, largest),
	}
}

// suffixLen returns the length of the suffix ref.
func (b *builder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

// tree builds one bucket's subtree at the tail of the current slab and
// returns its nodes, capped at their length so that no append through one
// tree can reach its neighbour. suffixes, which all share their first w
// characters, is left unmodified. Construction is the paper's recursive
// bucketing, one character per branching level and a word-wise compare across
// each shared run: O(sum of suffix lengths) for the bucket, i.e. O(N·l/p) per
// worker overall — efficient in practice because the average EST length l is
// independent of n.
func (b *builder) tree(suffixes []SuffixRef) ([]Node, error) {
	n := len(suffixes)
	work := b.work[:n]
	for i, r := range suffixes {
		if b.suffixLen(r) < b.w {
			return nil, fmt.Errorf("suffix: suffix (%d,%d) shorter than window %d", r.SID, r.Pos, b.w)
		}
		work[i] = r
	}
	// n leaves and at most n-1 branching internal nodes.
	if need := 2*n - 1; cap(b.slab)-len(b.slab) < need {
		b.slab = make([]Node, 0, max(need, min(slabNodes, 2*b.pending)))
	}
	b.base = len(b.slab)
	b.build(work, b.w)
	b.pending -= n
	return b.slab[b.base:len(b.slab):len(b.slab)], nil
}

// emitLeaf appends a leaf for suffix r, whose length is depth.
func (b *builder) emitLeaf(r SuffixRef, depth int32) {
	if b.order != nil {
		b.order = append(b.order, r)
		b.lcps = append(b.lcps, uint8(min(b.seam, maxLCP)))
		return
	}
	i := int32(len(b.slab) - b.base)
	b.slab = append(b.slab, Node{Depth: depth, RML: i, SID: r.SID, Pos: r.Pos})
}

// build adds the subtree for a group of suffixes sharing their first `depth`
// characters, reordering group in place. Conceptually every suffix ends with
// a unique terminator, so identical suffixes from different strings split at
// an internal node whose leaf children they become.
//
// Two suffixes are finished in one step: their common prefix is the node's
// depth and the first to end or the smaller next character is the first leaf.
// A larger group is classified by one pass that reads each suffix's next
// character into cls and counts the five classes. When every suffix continues
// with the same character, extension measures the rest of the shared run a
// word at a time and the pass runs once more past it (path compression);
// otherwise the counts are the offsets of a stable scatter that leaves the
// group ordered terminators, A, C, G, T with the (SID, Pos) order kept inside
// each class — the order per-class appends would have produced.
func (b *builder) build(group []SuffixRef, depth int32) {
	if len(group) == 1 {
		b.emitLeaf(group[0], b.suffixLen(group[0]))
		return
	}
	if len(group) == 2 {
		b.pair(group[0], group[1], depth)
		return
	}
	cls := b.cls[:len(group)]
	var cnt [1 + seq.AlphabetSize]int32
	for {
		cnt = [1 + seq.AlphabetSize]int32{}
		for i, r := range group {
			s := b.set.Str(r.SID)
			var c uint8
			if at := int(r.Pos + depth); at < len(s) {
				c = 1 + uint8(s[at])
			}
			cls[i] = c
			cnt[c]++
		}
		if c := cls[0]; c == 0 || int(cnt[c]) < len(group) {
			break
		}
		depth += 1 + b.extension(group, depth+1)
	}
	self := len(b.slab)
	if b.order == nil {
		b.slab = append(b.slab, Node{Depth: depth, SID: group[0].SID, Pos: group[0].Pos})
	}

	tmp := b.tmp[:len(group)]
	copy(tmp, group)
	var at [1 + seq.AlphabetSize]int32
	for c := 1; c < len(at); c++ {
		at[c] = at[c-1] + cnt[c-1]
	}
	for i, r := range tmp {
		c := cls[i]
		group[at[c]] = r
		at[c]++
	}
	// cls and tmp are free again: the recursion below reuses them.
	for _, r := range group[:cnt[0]] {
		b.emitLeaf(r, depth) // terminator edge: leaf at the same string-depth
		b.seam = depth
	}
	lo := cnt[0]
	for _, n := range cnt[1:] {
		if n > 0 {
			b.build(group[lo:lo+n], depth+1)
			b.seam = depth
			lo += n
		}
	}
	if b.order == nil {
		b.slab[self].RML = int32(len(b.slab)-b.base) - 1
	}
}

// pair adds the subtree of two suffixes sharing their first depth characters:
// a node at their common prefix, represented by r as every node is by its
// group's first suffix, and their leaves in class order. Identical suffixes
// both end there and keep their order.
func (b *builder) pair(r, q SuffixRef, depth int32) {
	rs, qs := b.set.Suffix(r.SID, r.Pos), b.set.Suffix(q.SID, q.Pos)
	d := depth + int32(commonPrefix(rs[depth:], qs[depth:]))
	if b.order == nil {
		i := int32(len(b.slab) - b.base)
		b.slab = append(b.slab, Node{Depth: d, RML: i + 2, SID: r.SID, Pos: r.Pos})
	}
	if int(d) < len(rs) && (int(d) == len(qs) || qs[d] < rs[d]) {
		r, q = q, r
	}
	b.emitLeaf(r, b.suffixLen(r))
	b.seam = d
	b.emitLeaf(q, b.suffixLen(q))
}

// extension returns how many characters from depth on every suffix of group
// shares with group[0]'s.
func (b *builder) extension(group []SuffixRef, depth int32) int32 {
	s := b.set.Suffix(group[0].SID, group[0].Pos+depth)
	for _, r := range group[1:] {
		s = s[:commonPrefix(s, b.set.Suffix(r.SID, r.Pos+depth))]
		if len(s) == 0 {
			break
		}
	}
	return int32(len(s))
}

// commonPrefix returns the length of the longest common prefix of a and b,
// comparing eight characters at a time.
func commonPrefix(a, b seq.Sequence) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := load8(a[i:]) ^ load8(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// load8 reads s[0:8] as a little-endian word; the compiler turns it into one
// load.
func load8(s seq.Sequence) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// BuildForest builds the subtree of every non-empty bucket of the table, in
// ascending bucket order, on one goroutine. Only bench/shadow.go calls it
// outside tests, and ROADMAP item 11 deletes it with the shadow.
func BuildForest(set *seq.SetS, t *Buckets, w int) ([]*Tree, error) {
	if t.w != w {
		return nil, fmt.Errorf("suffix: table collected with window %d, build asked for %d", t.w, w)
	}
	return BuildBuckets(set, t, t.NonEmpty(), 1)
}

// BuildBuckets builds the subtrees of the listed buckets of the table, in the
// order given, skipping the empty ones; a table a failed CollectOwned
// returned yields that collect's error. The table is only read.
//
// The ids are cut into at most workers contiguous chunks of near-equal suffix
// count, each built by a builder of its own, the first on the calling
// goroutine and the others concurrently. Subtrees are independent (§3.1), so
// the forest is node for node what one builder makes, in the same order, and
// the error returned is the one a single pass over the ids meets first.
// Trees are written back to back into node slabs and their headers are cut
// from one array, so a forest costs a few allocations per slab and per
// worker, not per tree — and a tree keeps its whole slab reachable for as
// long as it is.
func BuildBuckets(set *seq.SetS, t *Buckets, ids []int32, workers int) ([]*Tree, error) {
	if t.err != nil {
		return nil, t.err
	}
	cuts := fanout.Cuts(len(ids), workers, func(i int) int { return len(t.Refs(int(ids[i]))) })
	// Slot i holds ids[i]'s tree until the compaction below, so no chunk
	// needs to know how many trees the chunks before it build.
	forest := make([]*Tree, len(ids))
	headers := make([]Tree, len(ids))
	err := fanout.Run(len(cuts)-1, func(k int) error {
		lo, hi := cuts[k], cuts[k+1]
		return buildRange(set, t, ids[lo:hi], forest[lo:hi], headers[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, tr := range forest {
		if tr != nil {
			forest[n] = tr
			n++
		}
	}
	return forest[:n], nil
}

// buildRange builds the non-empty buckets among ids with one builder, putting
// bucket ids[i]'s tree in headers[i] and forest[i]. It stops at the first
// error.
func buildRange(set *seq.SetS, t *Buckets, ids []int32, forest []*Tree, headers []Tree) error {
	pending, largest := 0, 0
	for _, id := range ids {
		n := len(t.Refs(int(id)))
		pending += n
		largest = max(largest, n)
	}
	b := newBuilder(set, t.w, pending, largest)
	for i, id := range ids {
		refs := t.Refs(int(id))
		if len(refs) == 0 {
			continue
		}
		var nodes []Node
		var err error
		if t.sorted {
			nodes = b.sortedTree(refs, t.lcps(int(id)))
		} else if nodes, err = b.tree(refs); err != nil {
			return err
		}
		headers[i] = Tree{Bucket: int(id), Nodes: nodes}
		forest[i] = &headers[i]
	}
	return nil
}

// Verify checks the structural invariants of a tree against the sequence
// set; it is O(total suffix length) and intended for tests and debugging.
func (t *Tree) Verify(set *seq.SetS) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("suffix: empty tree")
	}
	var walk func(i int32) (next int32, err error)
	walk = func(i int32) (int32, error) {
		n := t.Nodes[i]
		if n.RML < i || int(n.RML) >= len(t.Nodes) {
			return 0, fmt.Errorf("node %d: RML %d out of range", i, n.RML)
		}
		if int(n.Pos+n.Depth) > len(set.Str(n.SID)) {
			return 0, fmt.Errorf("node %d: representative overruns string", i)
		}
		if t.IsLeaf(i) {
			if n.Depth != int32(len(set.Str(n.SID)))-n.Pos {
				return 0, fmt.Errorf("leaf %d: depth %d is not its suffix length", i, n.Depth)
			}
			return i + 1, nil
		}
		label := t.PathLabel(set, i)
		nChildren := 0
		for c := t.FirstChild(i); c != -1; c = t.NextSibling(c, i) {
			nChildren++
			cn := t.Nodes[c]
			if cn.Depth < n.Depth {
				return 0, fmt.Errorf("child %d shallower than parent %d", c, i)
			}
			if cn.Depth == n.Depth && !t.IsLeaf(c) {
				return 0, fmt.Errorf("internal child %d at same depth as parent %d", c, i)
			}
			childPrefix := set.Str(cn.SID)[cn.Pos : cn.Pos+n.Depth]
			if !childPrefix.Equal(label) {
				return 0, fmt.Errorf("child %d does not extend parent %d's label", c, i)
			}
			if _, err := walk(c); err != nil {
				return 0, err
			}
		}
		if nChildren < 2 {
			return 0, fmt.Errorf("internal node %d has %d children", i, nChildren)
		}
		return n.RML + 1, nil
	}
	next, err := walk(0)
	if err != nil {
		return err
	}
	if int(next) != len(t.Nodes) {
		return fmt.Errorf("walk covered %d of %d nodes", next, len(t.Nodes))
	}
	return nil
}
