package suffix

// The oracles of the table and its ordering, kept verbatim with their types
// and names prefixed so as not to clash with the production code:
//
//   - the map-based collector and the append-per-class builder the flat
//     table and the stable scatter replaced (ref*);
//   - the node-writing builder the sort replaced (nodeBuilder), with the
//     depth-first-search array of nodes it wrote (Node, nodeTree) — the
//     paper's §3.1 layout, which a table's buckets and LCP bytes now stand
//     for;
//   - the 8-byte (string id, offset) ref a table held per suffix before a
//     suffix was its position in the set's text (SuffixRef), which the
//     oracles still speak, with the adapters to and from positions;
//   - the class pass the key sort replaced in groups of three or more
//     (classBuilder): one pass per character, a five-way scatter, and
//     extension's jump over a run every suffix shares; with it, the split
//     of a run of equal code into the suffixes that end within the code and
//     the rest, and the LCPs read off the codes (shortFirst, follow), which
//     the key sort took over in whole runs.
//
// TestBuildMatchesReference and FuzzBuildMatchesReference require the two
// node builders to write the same nodes, element for element, every ordered
// bucket to be their tree's preorder leaves with every LCP byte
// min(MaxLCP, the true LCP) and every LCP interval one of their internal
// nodes, and every ordered table to hold the class pass's refs and LCP
// bytes.

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"pace/internal/seq"
)

// SuffixRef identifies one suffix: string id and start position.
type SuffixRef struct {
	SID seq.StringID
	Pos int32
}

// refAt is the SuffixRef of the suffix at text position p.
func refAt(set *seq.SetS, p int32) SuffixRef {
	id, pos := set.Locate(p)
	return SuffixRef{SID: id, Pos: pos}
}

// refsAt is refAt over positions.
func refsAt(set *seq.SetS, ps []int32) []SuffixRef {
	out := make([]SuffixRef, len(ps))
	for i, p := range ps {
		out[i] = refAt(set, p)
	}
	return out
}

// posOf is the text position of suffix r, refAt's inverse.
func posOf(set *seq.SetS, r SuffixRef) int32 { return set.Start(r.SID) + r.Pos }

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

// nodeTree is one bucket's subtree of the conceptual GST, in preorder.
type nodeTree struct {
	// Bucket is the bucket id this subtree was built from.
	Bucket int
	// Nodes are the tree nodes in depth-first (preorder) order; Nodes[0]
	// is the subtree root.
	Nodes []Node
}

// Len returns the number of nodes.
func (t *nodeTree) Len() int { return len(t.Nodes) }

// IsLeaf reports whether node i is a leaf.
func (t *nodeTree) IsLeaf(i int32) bool { return t.Nodes[i].RML == i }

// FirstChild returns the first child of internal node i.
func (t *nodeTree) FirstChild(i int32) int32 { return i + 1 }

// NextSibling returns the next sibling of node i under parent p, or -1.
func (t *nodeTree) NextSibling(i, p int32) int32 {
	if t.Nodes[i].RML == t.Nodes[p].RML {
		return -1
	}
	return t.Nodes[i].RML + 1
}

// Children appends the child indices of node i to buf and returns it.
func (t *nodeTree) Children(i int32, buf []int32) []int32 {
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
func (t *nodeTree) PathLabel(set *seq.SetS, i int32) seq.Sequence {
	n := t.Nodes[i]
	return set.Str(n.SID)[n.Pos : n.Pos+n.Depth]
}

// NumLeaves returns the number of leaves (i.e. suffixes) in the tree.
func (t *nodeTree) NumLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.IsLeaf(int32(i)) {
			c++
		}
	}
	return c
}

// Verify checks the structural invariants of a tree against the sequence
// set; it is O(total suffix length).
func (t *nodeTree) Verify(set *seq.SetS) error {
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
			if !slices.Equal(childPrefix, label) {
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

// errRefEmptyBucket is refBuild's error for a bucket with no suffixes.
var errRefEmptyBucket = errors.New("suffix: empty bucket")

// refCollectOwned scans the strings in [lo,hi) and gathers the suffixes whose
// bucket is owned by worker me, grouped by bucket id.
func refCollectOwned(set *seq.SetS, w int, owner []int32, me int32, lo, hi seq.StringID) map[int][]SuffixRef {
	out := make(map[int][]SuffixRef)
	for id := lo; id < hi; id++ {
		BucketEach(set.Str(id), w, func(b int, pos int32) {
			if owner[b] == me {
				out[b] = append(out[b], SuffixRef{SID: id, Pos: pos})
			}
		})
	}
	return out
}

// refSortedBucketIDs returns the map's bucket ids in ascending order.
func refSortedBucketIDs(m map[int][]SuffixRef) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// refBuilder constructs one bucket subtree.
type refBuilder struct {
	set   *seq.SetS
	nodes []Node
}

func (b *refBuilder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

func (b *refBuilder) charAt(r SuffixRef, d int32) seq.Code {
	return b.set.Str(r.SID)[r.Pos+d]
}

// refBuild constructs the subtree for a bucket's suffixes by character-at-a-
// time recursive bucketing.
func refBuild(set *seq.SetS, bucket int, suffixes []SuffixRef, w int) (*nodeTree, error) {
	if len(suffixes) == 0 {
		return nil, fmt.Errorf("suffix: bucket %d: %w", bucket, errRefEmptyBucket)
	}
	b := &refBuilder{set: set}
	for _, r := range suffixes {
		if b.suffixLen(r) < int32(w) {
			return nil, fmt.Errorf("suffix: suffix (%d,%d) shorter than window %d", r.SID, r.Pos, w)
		}
	}
	b.build(suffixes, int32(w))
	return &nodeTree{Bucket: bucket, Nodes: b.nodes}, nil
}

func (b *refBuilder) emitLeaf(r SuffixRef) {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Depth: b.suffixLen(r), RML: i, SID: r.SID, Pos: r.Pos})
}

func (b *refBuilder) build(group []SuffixRef, depth int32) {
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

// refBuildForest builds the subtree of every bucket in the map, in ascending
// bucket order, skipping empty lists.
func refBuildForest(set *seq.SetS, byBucket map[int][]SuffixRef, w int) ([]*nodeTree, error) {
	ids := refSortedBucketIDs(byBucket)
	forest := make([]*nodeTree, 0, len(ids))
	for _, id := range ids {
		if len(byBucket[id]) == 0 {
			continue
		}
		t, err := refBuild(set, id, byBucket[id], w)
		if err != nil {
			return nil, err
		}
		forest = append(forest, t)
	}
	return forest, nil
}

// slabNodes is the size of the node slabs a forest is written into: 64 Ki
// nodes, 1 MiB. A tree that needs more gets a slab of its own size.
const slabNodes = 1 << 16

// nodeBuilder constructs bucket subtrees straight into node slabs. One
// builder serves a whole forest, so its scratch buffers and slabs are
// allocated a handful of times whatever the number of trees.
type nodeBuilder struct {
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
}

// newNodeBuilder returns a builder for trees totalling pending suffixes, none
// larger than largest.
func newNodeBuilder(set *seq.SetS, w, pending, largest int) *nodeBuilder {
	return &nodeBuilder{
		set: set, w: int32(w), pending: pending,
		work: make([]SuffixRef, largest),
		tmp:  make([]SuffixRef, largest),
		cls:  make([]uint8, largest),
	}
}

// suffixLen returns the length of the suffix ref.
func (b *nodeBuilder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

// tree builds one bucket's subtree at the tail of the current slab and
// returns its nodes, capped at their length so that no append through one
// tree can reach its neighbour. suffixes, which all share their first w
// characters, is left unmodified.
func (b *nodeBuilder) tree(suffixes []SuffixRef) ([]Node, error) {
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
func (b *nodeBuilder) emitLeaf(r SuffixRef, depth int32) {
	i := int32(len(b.slab) - b.base)
	b.slab = append(b.slab, Node{Depth: depth, RML: i, SID: r.SID, Pos: r.Pos})
}

// build adds the subtree for a group of suffixes sharing their first `depth`
// characters, reordering group in place: a stable five-way scatter per
// branching level, path compression by a word-wise compare, and a group of
// two finished in one step.
func (b *nodeBuilder) build(group []SuffixRef, depth int32) {
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
	b.slab = append(b.slab, Node{Depth: depth, SID: group[0].SID, Pos: group[0].Pos})

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
	}
	lo := cnt[0]
	for _, n := range cnt[1:] {
		if n > 0 {
			b.build(group[lo:lo+n], depth+1)
			lo += n
		}
	}
	b.slab[self].RML = int32(len(b.slab)-b.base) - 1
}

// pair adds the subtree of two suffixes sharing their first depth characters:
// a node at their common prefix, represented by r as every node is by its
// group's first suffix, and their leaves in class order. Identical suffixes
// both end there and keep their order.
func (b *nodeBuilder) pair(r, q SuffixRef, depth int32) {
	rs, qs := b.set.Str(r.SID)[r.Pos:], b.set.Str(q.SID)[q.Pos:]
	d := depth + int32(commonPrefix(rs[depth:], qs[depth:]))
	i := int32(len(b.slab) - b.base)
	b.slab = append(b.slab, Node{Depth: d, RML: i + 2, SID: r.SID, Pos: r.Pos})
	if int(d) < len(rs) && (int(d) == len(qs) || qs[d] < rs[d]) {
		r, q = q, r
	}
	b.emitLeaf(r, b.suffixLen(r))
	b.emitLeaf(q, b.suffixLen(q))
}

// extension returns how many characters from depth on every suffix of group
// shares with group[0]'s.
func (b *nodeBuilder) extension(group []SuffixRef, depth int32) int32 {
	s := b.set.Str(group[0].SID)[group[0].Pos+depth:]
	for _, r := range group[1:] {
		s = s[:commonPrefix(s, b.set.Str(r.SID)[r.Pos+depth:])]
		if len(s) == 0 {
			break
		}
	}
	return int32(len(s))
}

// nodeBuildForest builds the subtree of every bucket in the map, in
// ascending bucket order, with one node builder.
func nodeBuildForest(set *seq.SetS, byBucket map[int][]SuffixRef, w int) ([]*nodeTree, error) {
	ids := refSortedBucketIDs(byBucket)
	pending, largest := 0, 0
	for _, id := range ids {
		pending += len(byBucket[id])
		largest = max(largest, len(byBucket[id]))
	}
	b := newNodeBuilder(set, w, pending, largest)
	forest := make([]*nodeTree, 0, len(ids))
	for _, id := range ids {
		if len(byBucket[id]) == 0 {
			continue
		}
		nodes, err := b.tree(byBucket[id])
		if err != nil {
			return nil, err
		}
		forest = append(forest, &nodeTree{Bucket: id, Nodes: nodes})
	}
	return forest, nil
}

// classBuilder is the builder as it was before groups of three or more were
// sorted on fetched keys. Its sort, build, extension, shortFirst and follow,
// with the code and past they keep, are that builder's, verbatim; the rest
// (emitLeaf, pair and the buffers) is the production builder's.
type classBuilder struct {
	*builder
	// code and past are the leaf emitted last's code and characters past
	// the window, at most four.
	code, past uint8
}

// classOrdered returns a copy of a table whose buckets have no ordered front,
// each bucket ordered by the class-pass builder.
func classOrdered(t testing.TB, set *seq.SetS, table *Buckets) *Buckets {
	t.Helper()
	out := *table
	out.refs, out.lcp, out.ordered = slices.Clone(table.refs), slices.Clone(table.lcp), slices.Clone(table.ordered)
	largest := 0
	for b := range out.ordered {
		largest = max(largest, int(out.off[b+1]-out.off[b]))
	}
	cb := &classBuilder{builder: newBuilder(set.Text(), out.w, largest)}
	for b := range out.ordered {
		lo, hi := out.off[b], out.off[b+1]
		if out.ordered[b] != 0 {
			t.Fatalf("bucket %d has an ordered front of %d", b, out.ordered[b])
		}
		if lo == hi {
			continue
		}
		order, lcp, err := cb.sort(out.refs[lo:hi], out.lcp[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		copy(out.refs[lo:hi], order)
		copy(out.lcp[lo:hi], lcp)
		out.ordered[b] = hi - lo
	}
	return &out
}

// sort orders suffixes, which share their first w characters, come in
// position order and carry their look-ahead codes in codes, as their
// subtree's preorder leaves, and returns them with each one's saturated LCP
// with the one before it, both valid until the next call. A suffix shorter
// than the window is an error.
//
// Past two suffixes, two stable 16-way passes order them by code, equal
// codes in position order; codes that differ give the LCP (follow), and
// past the window strings are read only in a run of equal code, by
// shortFirst and by build from depth w+4. It costs O(sum of suffix lengths) for the bucket, i.e.
// O(N·l/p) per worker, as the average EST length l is independent of n.
func (b *classBuilder) sort(suffixes []int32, codes []uint8) ([]int32, []uint8, error) {
	n := len(suffixes)
	tmp, cls, work, key := b.tmp[:n], b.cls[:n], b.work[:n], b.codes[:n]
	var low, high [16]int32
	var ends seq.Code // λ's bit if a suffix ends within the window
	for i, r := range suffixes {
		for _, c := range b.text[r:min(int(r+b.w), len(b.text))] {
			ends |= c & seq.Lambda
		}
		low[codes[i]&15]++
		high[codes[i]>>4]++
	}
	for i := 0; ends != 0 && i < n; i++ {
		if r := suffixes[i]; slices.Contains(b.text[r:min(int(r+b.w), len(b.text))], seq.Lambda) {
			return nil, nil, fmt.Errorf("suffix: suffix at %d shorter than window %d", r, b.w)
		}
	}
	b.order, b.lcps, b.seam = b.order[:0], b.lcps[:0], 0
	if n <= 2 { // one compare orders two suffixes, faster than the passes
		copy(work, suffixes)
		b.build(work, b.w)
		return b.order, b.lcps, nil
	}
	scatterBy(suffixes, codes, tmp, cls, &low, 0)
	scatterBy(tmp, cls, work, key, &high, 4)
	for lo, hi := 0, 0; lo < n; lo = hi {
		c := key[lo]
		for hi = lo + 1; hi < n && key[hi] == c; hi++ {
		}
		run := work[lo:hi]
		if c&3 == 0 {
			run = b.shortFirst(run, c)
		}
		if len(run) > 0 {
			b.follow(c, 4)
			b.build(run, b.w+4)
		}
	}
	b.lcps[0] = 0
	return b.order, b.lcps, nil
}

// build emits the leaves of the subtree of a group of suffixes sharing their
// first `depth` characters, reordering group in place. Conceptually every
// suffix ends with a unique terminator, so identical suffixes from different
// strings split at an internal node whose leaf children they become.
//
// Two suffixes are finished in one step: their common prefix is the node's
// depth and the first to end or the smaller next character is the first leaf.
// A larger group is classified by one pass that reads each suffix's next
// character into cls and counts the five classes. When every suffix continues
// with the same character, extension measures the rest of the shared run a
// word at a time and the pass runs once more past it (path compression);
// otherwise the counts are the offsets of a stable scatter that leaves the
// group ordered terminators, A, C, G, T with the position order kept inside
// each class, which is what makes equal suffixes leaves in position order.
func (b *classBuilder) build(group []int32, depth int32) {
	if len(group) == 1 {
		b.emitLeaf(group[0])
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
			c := uint8(b.text[r+depth]+1) % (1 + seq.AlphabetSize) // λ 0, c 1+c
			cls[i] = c
			cnt[c]++
		}
		if c := cls[0]; c == 0 || int(cnt[c]) < len(group) {
			break
		}
		depth += 1 + b.extension(group, depth+1)
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
		b.emitLeaf(r) // terminator edge: leaf at the node's own depth
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
}

// extension returns how many characters from depth on every suffix of group
// shares with group[0]'s.
func (b *classBuilder) extension(group []int32, depth int32) int32 {
	s := b.text[group[0]+depth:]
	for _, r := range group[1:] {
		s = s[:commonPrefix(s, b.text[r+depth:])]
		if len(s) == 0 {
			break
		}
	}
	return int32(len(s))
}

// shortFirst reads the lengths of a run of code c, which ends in A and so
// may hide suffixes with fewer than four characters past the window. It
// emits those, shortest first and equal ones in run order, each a prefix of
// all after it, and returns the rest, compacted in order to run's front.
func (b *classBuilder) shortFirst(run []int32, c uint8) []int32 {
	past := b.cls[:len(run)]
	for i, r := range run {
		n := uint8(0)
		for n < 4 && b.text[r+b.w+int32(n)] != seq.Lambda {
			n++
		}
		past[i] = n
	}
	rest := run[:0]
	for n := uint8(0); n <= 4; n++ {
		for i, r := range run {
			if past[i] == n && n < 4 {
				b.follow(c, n)
				b.emitLeaf(r)
			} else if past[i] == n {
				rest = append(rest, r)
			}
		}
	}
	return rest
}

// follow sets the seam for the next leaf, of code c and n ≤ 4 characters
// past the window: its LCP with the leaf emitted last is w plus the
// characters their codes share, unless either ends first.
func (b *classBuilder) follow(c, n uint8) {
	b.seam = b.w + int32(min(bits.LeadingZeros8(b.code^c)/2, int(b.past), int(n)))
	b.code, b.past = c, n
}
