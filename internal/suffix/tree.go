package suffix

import (
	"fmt"
	"sync"

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
	// leaves caches the leaf count; Build and ReadTree fill it so NumLeaves
	// need not rescan the node array on every stats or serialization call.
	leaves int
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

// NumLeaves returns the number of leaves (i.e. suffixes) in the tree. Trees
// from Build or ReadTree answer from a count cached at construction; a tree
// assembled by hand falls back to a scan.
func (t *Tree) NumLeaves() int {
	if t.leaves > 0 || len(t.Nodes) == 0 {
		return t.leaves
	}
	return t.countLeaves()
}

func (t *Tree) countLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.IsLeaf(int32(i)) {
			c++
		}
	}
	return c
}

// builder constructs one bucket subtree.
type builder struct {
	set   *seq.SetS
	nodes []Node
}

// suffixLen returns the length of the suffix ref.
func (b *builder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

// charAt returns the suffix's character at string-depth d; the caller
// guarantees d < suffixLen.
func (b *builder) charAt(r SuffixRef, d int32) seq.Code {
	return b.set.Str(r.SID)[r.Pos+d]
}

// Build constructs the subtree for a bucket's suffixes, which all share
// their first w characters. Construction is the paper's simple
// character-at-a-time recursive bucketing: O(sum of suffix lengths) for the
// bucket, i.e. O(N·l/p) per worker overall — efficient in practice because
// the average EST length l is independent of n.
// Building an empty bucket returns ErrEmptyBucket (wrapped with the bucket
// id); incremental rebuilds legitimately produce such buckets when every
// cached suffix of a bucket belongs to strings that no longer map to it, and
// callers are expected to skip them explicitly rather than fail.
func Build(set *seq.SetS, bucket int, suffixes []SuffixRef, w int) (*Tree, error) {
	if len(suffixes) == 0 {
		return nil, fmt.Errorf("suffix: bucket %d: %w", bucket, ErrEmptyBucket)
	}
	b := &builder{set: set}
	for _, r := range suffixes {
		if b.suffixLen(r) < int32(w) {
			return nil, fmt.Errorf("suffix: suffix (%d,%d) shorter than window %d", r.SID, r.Pos, w)
		}
	}
	scratch := nodeScratch.Get().(*[]Node)
	b.nodes = (*scratch)[:0]
	b.build(suffixes, int32(w))
	nodes := make([]Node, len(b.nodes))
	copy(nodes, b.nodes)
	*scratch = b.nodes
	nodeScratch.Put(scratch)
	return &Tree{Bucket: bucket, Nodes: nodes, leaves: len(suffixes)}, nil
}

// nodeScratch recycles the buffers Build grows a tree in. A tree of n
// suffixes has up to 2n−1 nodes, how many is known only once it is built;
// building in scratch and copying out at the exact length keeps a tree from
// holding the unused rest of a worst-case allocation for its whole lifetime.
var nodeScratch = sync.Pool{New: func() any { return new([]Node) }}

// emitLeaf appends a leaf for suffix r (depth = full suffix length).
func (b *builder) emitLeaf(r SuffixRef) {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Depth: b.suffixLen(r), RML: i, SID: r.SID, Pos: r.Pos})
}

// build adds the subtree for a group of suffixes sharing their first `depth`
// characters. Conceptually every suffix ends with a unique terminator, so
// identical suffixes from different strings split at an internal node whose
// leaf children they become.
func (b *builder) build(group []SuffixRef, depth int32) {
	if len(group) == 1 {
		b.emitLeaf(group[0])
		return
	}
	// Path compression: extend the shared prefix while no suffix ends and
	// all continue with the same character.
	for {
		if b.suffixLen(group[0]) == depth {
			break
		}
		c := b.charAt(group[0], depth)
		same := true
		for _, r := range group[1:] {
			if b.suffixLen(r) == depth || b.charAt(r, depth) != c {
				same = false
				break
			}
		}
		if !same {
			break
		}
		depth++
	}
	// Internal node at this depth; partition the group into suffixes that
	// end here (terminator children) and per-character subgroups.
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Depth: depth, SID: group[0].SID, Pos: group[0].Pos})

	var classes [seq.AlphabetSize][]SuffixRef
	for _, r := range group {
		if b.suffixLen(r) == depth {
			b.emitLeaf(r) // terminator edge: leaf at the same string-depth
			continue
		}
		c := b.charAt(r, depth)
		classes[c] = append(classes[c], r)
	}
	for c := 0; c < seq.AlphabetSize; c++ {
		if len(classes[c]) > 0 {
			b.build(classes[c], depth+1)
		}
	}
	b.nodes[self].RML = int32(len(b.nodes)) - 1
}

// BuildForest builds the subtree of every bucket in the map, in ascending
// bucket order. Buckets whose suffix list is empty are skipped: incremental
// rebuilds can leave such entries behind, and they carry no subtree.
func BuildForest(set *seq.SetS, byBucket map[int][]SuffixRef, w int) ([]*Tree, error) {
	ids := SortedBucketIDs(byBucket)
	forest := make([]*Tree, 0, len(ids))
	for _, id := range ids {
		if len(byBucket[id]) == 0 {
			continue
		}
		t, err := Build(set, id, byBucket[id], w)
		if err != nil {
			return nil, err
		}
		forest = append(forest, t)
	}
	return forest, nil
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
