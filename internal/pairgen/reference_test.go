package pairgen

// The generators this one replaced, kept verbatim (types renamed) as the
// differential oracles of TestMatchesReference, FuzzGeneratorMatchesReference,
// FuzzLemmas and TestBenchShapesMatchReference:
//
//   - the node-array generator (nodeGenerator), which walked the paper's
//     depth-first-search array of nodes (§3.1) where this one reads LCP
//     intervals. It must emit the production generator's pair sequence,
//     pair for pair, with the same counters.
//   - the linked-list generator (refGenerator) the leaf-range arenas
//     replaced before it. It visits both nodes of a twin pair and drops, at
//     emit time, the copy of a pair whose lower EST's string is the reverse
//     one; refStats keeps the count of those the production generator has
//     no counter for.
//
// Both read node trees, which nodesOf writes from the ordered buckets in one
// stack pass (sortedTree, the pass a session's table used to rebuild nodes
// with). internal/suffix keeps the node builder itself and requires its
// trees and the ordered buckets to agree. The oracles name a suffix by its
// (string id, offset) ref, the table's layout before a suffix was its
// position in the set's text; refAt and leftChar adapt the two.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pace/internal/seq"
	"pace/internal/suffix"
)

// node is one GST node in the DFS-array representation (paper §3.1).
type node struct {
	// Depth is the node's string-depth (length of its path label).
	Depth int32
	// RML is the index of the rightmost leaf in the node's subtree. A node
	// is a leaf iff RML points to itself. The first child of an internal
	// node is the next array entry; the next sibling of a node is the entry
	// after its rightmost leaf (none if it shares RML with its parent).
	RML int32
	// SID/Pos name a representative suffix in the node's subtree: the
	// smallest (SID, Pos) beneath it, and for a leaf the leaf's own suffix.
	SID seq.StringID
	Pos int32
}

// nodeTree is one bucket's subtree of the conceptual GST, in preorder.
type nodeTree struct {
	Bucket int
	Nodes  []node
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

// PathLabel reconstructs the path label of node i from its representative
// suffix.
func (t *nodeTree) PathLabel(set *seq.SetS, i int32) seq.Sequence {
	n := t.Nodes[i]
	return set.Str(n.SID)[n.Pos : n.Pos+n.Depth]
}

// suffixRef identifies one suffix: string id and start position.
type suffixRef struct {
	SID seq.StringID
	Pos int32
}

// refAt is the suffixRef of the suffix at text position p.
func refAt(set *seq.SetS, p int32) suffixRef {
	id, pos := set.Locate(p)
	return suffixRef{SID: id, Pos: pos}
}

// leftChar is the left character of string id's suffix at pos.
func leftChar(set *seq.SetS, id seq.StringID, pos int32) seq.Code {
	return set.LeftChar(set.Start(id) + pos)
}

// nodesOf writes the node tree of every ordered bucket of forest.
func nodesOf(set *seq.SetS, forest []*suffix.Tree) []*nodeTree {
	out := make([]*nodeTree, len(forest))
	for i, tr := range forest {
		out[i] = &nodeTree{Bucket: tr.Bucket, Nodes: sortedTree(set, tr)}
	}
	return out
}

// openNode is an internal node sortedTree has met but not yet closed.
type openNode struct {
	depth int32
	rml   int32     // slot of its rightmost leaf
	rep   suffixRef // the smallest (SID, Pos) beneath it so far
}

// sortedTree writes the tree of an ordered bucket: a leaf per suffix at its
// length and a node per LCP interval, represented by the smallest (SID, Pos)
// beneath it — the node builder's tree, node for node. A right-to-left pass
// with a stack of open nodes emits each node once its subtree is complete,
// from the end of the 2n-1 slots reserved, which leaves them in preorder;
// they are then moved to the front.
func sortedTree(set *seq.SetS, tr *suffix.Tree) []node {
	refs := make([]suffixRef, len(tr.Refs()))
	for i, p := range tr.Refs() {
		refs[i] = refAt(set, p)
	}
	n := len(refs)
	need := 2*n - 1
	nodes := make([]node, need)
	suffixLen := func(r suffixRef) int32 { return int32(len(set.Str(r.SID))) - r.Pos }
	// rep and rml are the smallest (SID, Pos) and the rightmost leaf of the
	// subtree completed last. Its parent is the deepest open node no deeper
	// than the next LCP, or a node opened at that depth.
	at, rep, rml := int32(need), refs[n-1], int32(need-1)
	leaf := func() {
		at--
		nodes[at] = node{Depth: suffixLen(rep), RML: at, SID: rep.SID, Pos: rep.Pos}
	}
	leaf()
	var stack []openNode
	closeTop := func() {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v.rep = least(v.rep, rep)
		at--
		nodes[at] = node{Depth: v.depth, RML: v.rml, SID: v.rep.SID, Pos: v.rep.Pos}
		rep, rml = v.rep, v.rml
	}
	for i := n - 1; i > 0; i-- {
		d := tr.LCPAt(i)
		for len(stack) > 0 && stack[len(stack)-1].depth > d {
			closeTop()
		}
		if top := len(stack) - 1; top >= 0 && stack[top].depth == d {
			stack[top].rep = least(stack[top].rep, rep)
		} else {
			stack = append(stack, openNode{depth: d, rml: rml, rep: rep})
		}
		rep, rml = refs[i-1], at-1
		leaf()
	}
	for len(stack) > 0 {
		closeTop()
	}
	for j := range nodes[at:] {
		nodes[j] = nodes[int(at)+j]
		nodes[j].RML -= at
	}
	return nodes[: need-int(at) : need-int(at)]
}

// least returns the smaller of two suffixes in (SID, Pos) order.
func least(a, b suffixRef) suffixRef {
	if b.SID < a.SID || b.SID == a.SID && b.Pos < a.Pos {
		return b
	}
	return a
}

// refItem is the oracle's unpacked snapshot entry.
type refItem struct {
	sid seq.StringID
	pos int32
}

// list is a singly linked lset; head/tail index a tree-local entry pool.
type list struct{ head, tail int32 }

var emptyList = list{head: -1, tail: -1}

// entry is one lset element.
type entry struct {
	sid  seq.StringID
	pos  int32
	next int32
}

// refTreeState is the per-tree lset storage.
type refTreeState struct {
	tree *nodeTree
	// lsetIdx maps a node index to its row in lsets, or -1 for nodes of
	// depth < ψ (which never own lsets).
	lsetIdx []int32
	lsets   [][seq.NumLeftChars]list
	pool    []entry
}

// refStats is Stats plus the oracle's orientation discards.
type refStats struct {
	Stats
	DiscardedOrientation int64
}

// refGenerator produces promising pairs on demand.
type refGenerator struct {
	set   *seq.SetS
	psi   int32
	trees []*refTreeState
	// freshID is the fresh-only threshold: pairs whose strings both have an
	// id below it are suppressed (0 emits everything). Generations are
	// monotone in string id, so freshness is a single comparison.
	freshID seq.StringID

	order  []treeNodeRef
	cursor int

	mark  []int32
	token int32

	// Iteration state over the current internal node's groups.
	groups   []group
	itemsBuf []refItem
	curDepth int32
	gi, gj   int
	ii, jj   int32
	active   bool

	stats refStats
}

func newRefFresh(set *seq.SetS, forest []*nodeTree, psi int, fresh seq.Gen) (*refGenerator, error) {
	if psi < 1 {
		return nil, fmt.Errorf("pairgen: psi must be >= 1, got %d", psi)
	}
	g := &refGenerator{
		set:  set,
		psi:  int32(psi),
		mark: make([]int32, set.NumStrings()),
	}
	if fresh > 0 {
		g.freshID = set.GenStartString(fresh)
	}
	for _, t := range forest {
		ts := &refTreeState{tree: t, lsetIdx: make([]int32, t.Len())}
		deep := int32(0)
		for i, n := range t.Nodes {
			if n.Depth >= g.psi {
				ts.lsetIdx[i] = deep
				deep++
			} else {
				ts.lsetIdx[i] = -1
			}
		}
		ts.lsets = make([][seq.NumLeftChars]list, deep)
		for i := range ts.lsets {
			for c := range ts.lsets[i] {
				ts.lsets[i][c] = emptyList
			}
		}
		g.trees = append(g.trees, ts)
	}
	g.buildOrder()
	return g, nil
}

// buildOrder sorts the deep nodes of the forest by decreasing string-depth,
// breaking ties by descending node index so that children (which follow
// their parent in preorder and are at least as deep) are always processed
// before their parent. The sort is the O(sorting) term of the paper's
// Lemma 4; a two-pass counting sort keeps it linear.
func (g *refGenerator) buildOrder() {
	maxDepth := int32(0)
	total := 0
	for _, ts := range g.trees {
		for _, n := range ts.tree.Nodes {
			if n.Depth >= g.psi {
				total++
				if n.Depth > maxDepth {
					maxDepth = n.Depth
				}
			}
		}
	}
	if total == 0 {
		return
	}
	counts := make([]int32, maxDepth+2)
	for _, ts := range g.trees {
		for _, n := range ts.tree.Nodes {
			if n.Depth >= g.psi {
				counts[n.Depth]++
			}
		}
	}
	// Prefix-sum from the deepest down so larger depths come first.
	start := make([]int32, maxDepth+2)
	acc := int32(0)
	for d := maxDepth; d >= g.psi; d-- {
		start[d] = acc
		acc += counts[d]
	}
	g.order = make([]treeNodeRef, total)
	// Walk node indices in reverse so, within a depth class, higher
	// indices are placed first (children before parents).
	for ti := len(g.trees) - 1; ti >= 0; ti-- {
		nodes := g.trees[ti].tree.Nodes
		for i := len(nodes) - 1; i >= 0; i-- {
			d := nodes[i].Depth
			if d >= g.psi {
				g.order[start[d]] = treeNodeRef{tree: int32(ti), node: int32(i)}
				start[d]++
			}
		}
	}
}

// Stats returns a copy of the activity counters.
func (g *refGenerator) Stats() Stats { return g.stats.Stats }

// Remaining reports whether more pairs may still be produced (conservative:
// true until the final node is exhausted).
func (g *refGenerator) Remaining() bool {
	return g.active || g.cursor < len(g.order)
}

// Next appends up to max pairs to dst and returns the extended slice.
// A return with no appended pairs means the generator is exhausted.
func (g *refGenerator) Next(dst []Pair, max int) []Pair {
	want := len(dst) + max
	for len(dst) < want {
		if !g.active {
			if g.cursor >= len(g.order) {
				return dst
			}
			ref := g.order[g.cursor]
			g.cursor++
			g.processNode(ref)
			continue
		}
		dst = g.emit(dst, want)
	}
	return dst
}

// processNode initializes a leaf's lsets or prepares an internal node's
// dedup/snapshot/union and arms pair iteration.
func (g *refGenerator) processNode(ref treeNodeRef) {
	ts := g.trees[ref.tree]
	t := ts.tree
	if t.IsLeaf(ref.node) {
		n := t.Nodes[ref.node]
		c := leftChar(g.set, n.SID, n.Pos)
		e := int32(len(ts.pool))
		ts.pool = append(ts.pool, entry{sid: n.SID, pos: n.Pos, next: -1})
		ts.lsets[ts.lsetIdx[ref.node]][c] = list{head: e, tail: e}
		return
	}

	// Dedup every child lset with a fresh token, snapshotting survivors.
	g.token++
	g.groups = g.groups[:0]
	g.itemsBuf = g.itemsBuf[:0]
	childOrd := int32(0)
	for c := t.FirstChild(ref.node); c != -1; c = t.NextSibling(c, ref.node) {
		li := ts.lsetIdx[c]
		for ch := seq.Code(0); ch < seq.NumLeftChars; ch++ {
			l := &ts.lsets[li][ch]
			prev := int32(-1)
			cur := l.head
			lo := int32(len(g.itemsBuf))
			fresh := false
			for cur != -1 {
				e := &ts.pool[cur]
				if g.mark[e.sid] == g.token {
					// Duplicate occurrence: unlink.
					if prev == -1 {
						l.head = e.next
					} else {
						ts.pool[prev].next = e.next
					}
					if e.next == -1 {
						l.tail = prev
					}
					cur = e.next
					continue
				}
				g.mark[e.sid] = g.token
				g.itemsBuf = append(g.itemsBuf, refItem{sid: e.sid, pos: e.pos})
				fresh = fresh || e.sid >= g.freshID
				prev = cur
				cur = e.next
			}
			if hi := int32(len(g.itemsBuf)); hi > lo {
				g.groups = append(g.groups, group{child: childOrd, char: ch, lo: lo, hi: hi, fresh: fresh})
			}
		}
		childOrd++
	}

	// Union surviving child lsets into this node (O(|Σ|²) concatenations).
	vi := ts.lsetIdx[ref.node]
	for c := t.FirstChild(ref.node); c != -1; c = t.NextSibling(c, ref.node) {
		li := ts.lsetIdx[c]
		for ch := seq.Code(0); ch < seq.NumLeftChars; ch++ {
			src := ts.lsets[li][ch]
			ts.lsets[li][ch] = emptyList
			if src.head == -1 {
				continue
			}
			dst := &ts.lsets[vi][ch]
			if dst.head == -1 {
				*dst = src
			} else {
				ts.pool[dst.tail].next = src.head
				dst.tail = src.tail
			}
		}
	}

	g.curDepth = t.Nodes[ref.node].Depth
	g.gi, g.gj, g.ii, g.jj = 0, 1, 0, 0
	g.active = len(g.groups) >= 2
}

// emit appends pairs from the current node until dst reaches want length or
// the node is exhausted.
func (g *refGenerator) emit(dst []Pair, want int) []Pair {
	for len(dst) < want {
		// Advance to the next compatible group pair if needed. Two all-stale
		// groups cannot produce a fresh pair, so their whole cartesian
		// product is skipped in O(1).
		for g.gi < len(g.groups) {
			if g.gj >= len(g.groups) {
				g.gi++
				g.gj = g.gi + 1
				continue
			}
			if !compatible(g.groups[g.gi], g.groups[g.gj]) ||
				!(g.groups[g.gi].fresh || g.groups[g.gj].fresh) {
				g.gj++
				continue
			}
			break
		}
		if g.gi >= len(g.groups) {
			g.active = false
			return dst
		}
		ga, gb := g.groups[g.gi], g.groups[g.gj]
		a := g.itemsBuf[ga.lo+g.ii]
		b := g.itemsBuf[gb.lo+g.jj]

		// Advance the inner cursors for next time.
		g.jj++
		if gb.lo+g.jj >= gb.hi {
			g.jj = 0
			g.ii++
			if ga.lo+g.ii >= ga.hi {
				g.ii = 0
				g.gj++
			}
		}

		if a.sid < g.freshID && b.sid < g.freshID {
			// Old×old inside a mixed group pair: already judged in an
			// earlier generation.
			g.stats.DiscardedStale++
			continue
		}

		if p, ok := g.canonical(a, b); ok {
			dst = append(dst, p)
			g.stats.Generated++
		}
	}
	return dst
}

// canonical applies the paper's duplicate-avoidance rule: a pair is reported
// only when the string of the lower-numbered EST appears in forward
// orientation (its reverse-complemented twin is generated — and discarded —
// elsewhere). Pairs within a single EST are meaningless and dropped.
func (g *refGenerator) canonical(a, b refItem) (Pair, bool) {
	ea, eb := a.sid.EST(), b.sid.EST()
	if ea == eb {
		return Pair{}, false
	}
	if eb < ea {
		a, b = b, a
	}
	if a.sid.IsReverse() {
		g.stats.DiscardedOrientation++
		return Pair{}, false
	}
	return Pair{
		S1: a.sid, S2: b.sid,
		Pos1: a.pos, Pos2: b.pos,
		MatchLen: g.curDepth,
	}, true
}

// nodeTreeState locates one tree's share of the generator's flags.
type nodeTreeState struct {
	// nodes is the tree's node array, held directly so that reaching a node
	// costs no load of the Tree in between.
	nodes []node
	// base is the tree's offset into flags; int, so a forest of more than
	// 2³¹ nodes cannot wrap.
	base int
}

// treeNodeRef addresses one internal node in the forest.
type treeNodeRef struct {
	tree, node int32
}

// Per-node flags: the left characters beneath the node in the low
// seq.NumLeftChars bits — for a leaf its own, once its parent is deep —
// then whether a leaf of the current batch is beneath it, whether the node
// goes into order (charMask, freshBit and scheduled), and whether it is a
// leaf.
const nodeLeafBit = scheduled << 1

// nodeGenerator produces promising pairs on demand.
type nodeGenerator struct {
	// set gives string lengths, which mirroring a pair needs.
	set   *seq.SetS
	psi   int32
	trees []nodeTreeState
	// freshID is the fresh-only threshold: pairs whose strings both have an
	// id below it are suppressed (0 emits everything). Generations are
	// monotone in string id, so freshness is a single comparison.
	freshID seq.StringID

	// flags holds every node's flags, tree after tree in preorder.
	flags []uint8

	// order lists the internal nodes of depth >= ψ that can emit a pair,
	// deepest first.
	order  []treeNodeRef
	cursor int

	mark  []int32
	token int32

	// Iteration state over the current internal node's groups.
	groups   []group
	itemsBuf []item
	curDepth int32
	// palindrome reports that the current node's label is its own reverse
	// complement, so that a pair and its mirror are both among its products.
	palindrome bool
	gi, gj     int
	ii, jj     int32
	active     bool

	stats Stats
}

// newNodeFresh builds a generator restricted to pairs involving the current
// batch: only pairs where at least one string has generation >= fresh are
// emitted (the paper's Lemmas 1–4 guarantee an old×old pair's maximal common
// substring — and hence the pair itself — was already produced by the run
// that introduced the younger string). fresh == 0 emits every pair, exactly
// like a full generator. Dedup still runs over all suffixes in the forest, so the emitted
// fresh pairs are identical to what a full run would produce for them.
func newNodeFresh(set *seq.SetS, forest []*nodeTree, psi int, fresh seq.Gen) (*nodeGenerator, error) {
	if psi < 1 {
		return nil, fmt.Errorf("pairgen: psi must be >= 1, got %d", psi)
	}
	g := &nodeGenerator{
		set:   set,
		psi:   int32(psi),
		mark:  make([]int32, set.NumStrings()),
		trees: make([]nodeTreeState, len(forest)),
		// Sized past their first doublings, which would otherwise be most of
		// a drain's allocations.
		groups:   make([]group, 0, 16),
		itemsBuf: make([]item, 0, 64),
	}
	if fresh > 0 {
		g.freshID = set.GenStartString(fresh)
	}
	nodes := 0
	for ti, t := range forest {
		g.trees[ti] = nodeTreeState{nodes: t.Nodes, base: nodes}
		nodes += len(t.Nodes)
	}
	g.flags = make([]uint8, nodes)
	// A path label is a substring, so no node is deeper than the longest
	// string is long.
	longest := 0
	for id := 0; id < set.NumStrings(); id++ {
		longest = max(longest, len(set.Str(seq.StringID(id))))
	}
	byDepth := make([]int, longest+1)
	total, err := g.mask(byDepth)
	if err != nil {
		return nil, err
	}

	// Counting-sort the scheduled nodes by decreasing string-depth, breaking
	// ties by descending position in the forest so that children (which
	// follow their parent in preorder and are deeper) come before their
	// parent. The sort is the O(sorting) term of the paper's Lemma 4.
	// Prefix-sum from the deepest down so larger depths come first; place
	// then walks the forest in reverse, putting higher positions first.
	g.order = make([]treeNodeRef, total)
	acc := 0
	for d := longest; d >= 0; d-- {
		acc, byDepth[d] = acc+byDepth[d], acc
	}
	g.place(byDepth)
	return g, nil
}

// mask is construction's reverse pass — children before parents: it ORs
// the characters beneath each deep internal node out of its children's
// flags, reading a leaf child's own left character there, and marks and
// histograms by depth the nodes to schedule, returning how many there are.
// A leaf under a shallow parent is under no deep node, so its character is
// never read. With no fresh generation every string id is >= freshID, so
// every leaf counts as fresh and the second condition is vacuous.
func (g *nodeGenerator) mask(byDepth []int) (int, error) {
	total := 0
	for ti := len(g.trees) - 1; ti >= 0; ti-- {
		ns := g.trees[ti].nodes
		b := g.flags[g.trees[ti].base:][:len(ns)]
		for i := len(ns) - 1; i >= 0; i-- {
			n := ns[i]
			if n.RML == int32(i) {
				b[i] = nodeLeafBit
				if n.Depth >= g.psi {
					if n.SID >= g.freshID {
						b[i] |= freshBit
					}
				}
				continue
			}
			if n.Depth < g.psi {
				continue
			}
			var or uint8
			for child := int32(i) + 1; ; child = ns[child].RML + 1 {
				c := &ns[child]
				if c.RML == child {
					b[child] |= 1 << leftChar(g.set, c.SID, c.Pos)
				}
				or |= b[child]
				if c.RML == n.RML {
					break
				}
			}
			or &= charMask | freshBit
			// Two groups pair only when their characters differ or are both
			// λ: a range holding one non-λ character has no product. Of a
			// twin pair, only the chosen node is scheduled.
			if ch := or & charMask; (ch&(ch-1) != 0 || ch == 1<<seq.Lambda) && or&freshBit != 0 {
				if int(n.Depth) >= len(byDepth) {
					return 0, fmt.Errorf("pairgen: node of depth %d over strings no longer than %d", n.Depth, len(byDepth)-1)
				}
				s := g.set.Str(n.SID)
				if int(n.Pos)+int(n.Depth) > len(s) {
					return 0, fmt.Errorf("pairgen: node of depth %d at position %d of a string of length %d", n.Depth, n.Pos, len(s))
				}
				if keep, _ := chosen(s[n.Pos : n.Pos+n.Depth]); keep {
					or |= scheduled
					byDepth[n.Depth]++
					total++
				}
			}
			b[i] = or
		}
	}
	return total, nil
}

// place writes the scheduled nodes into order at the cursors byDepth holds,
// scanning flags in reverse so that, within a depth, higher positions come
// first. It tests eight flags a load and reads a node only if scheduled.
func (g *nodeGenerator) place(byDepth []int) {
	const lanes = 0x0101010101010101
	ti := len(g.trees) - 1
	put := func(j int) {
		for g.trees[ti].base > j {
			ti--
		}
		ts := &g.trees[ti]
		slot := &byDepth[ts.nodes[j-ts.base].Depth]
		g.order[*slot] = treeNodeRef{tree: int32(ti), node: int32(j - ts.base)}
		*slot++
	}
	j := len(g.flags)
	for ; j >= 8; j -= 8 {
		for w := binary.LittleEndian.Uint64(g.flags[j-8:j]) & (scheduled * lanes); w != 0; {
			k := 63 - bits.LeadingZeros64(w)
			put(j - 8 + k/8)
			w &^= 1 << k
		}
	}
	for j--; j >= 0; j-- {
		if g.flags[j]&scheduled != 0 {
			put(j)
		}
	}
}

// Stats returns a copy of the activity counters.
func (g *nodeGenerator) Stats() Stats { return g.stats }

// Remaining reports whether more pairs may still be produced (conservative:
// true until the final node is exhausted).
func (g *nodeGenerator) Remaining() bool {
	return g.active || g.cursor < len(g.order)
}

// Next appends up to max pairs to dst and returns the extended slice.
// A return with no appended pairs means the generator is exhausted.
func (g *nodeGenerator) Next(dst []Pair, max int) []Pair {
	want := len(dst) + max
	for len(dst) < want && g.Remaining() {
		if g.active {
			dst = g.emit(dst, want)
			continue
		}
		g.processNode(g.order[g.cursor])
		g.cursor++
	}
	return dst
}

// processNode cuts an internal node's (child, character) groups out of its
// leaf range and arms pair iteration over them.
func (g *nodeGenerator) processNode(ref treeNodeRef) {
	ts := &g.trees[ref.tree]
	nodes := ts.nodes
	v := ref.node
	flags := g.flags[ts.base:][:len(nodes)]

	// The children's ranges tile nodes[v+1 .. RML(v)]. Within each, the first
	// leaf of a string no earlier child has shown survives: the mark array
	// with a fresh token per node is the dedup.
	g.token++
	g.groups = g.groups[:0]
	g.itemsBuf = g.itemsBuf[:0]
	last := nodes[v].RML
	for c, child := v+1, int32(0); c <= last; child++ {
		lo := int32(len(g.itemsBuf))
		var seen uint8 // left characters among the child's survivors
		fresh := false
		for end := nodes[c].RML; c <= end; c++ {
			n := &nodes[c]
			if n.RML != c || g.mark[n.SID] == g.token {
				continue
			}
			g.mark[n.SID] = g.token
			ch := flags[c] & charMask
			seen |= ch
			fresh = fresh || n.SID >= g.freshID
			g.itemsBuf = append(g.itemsBuf, item{sid: n.SID, pos: n.Pos, char: seq.Code(bits.TrailingZeros8(ch))})
		}
		switch hi := int32(len(g.itemsBuf)); {
		case hi == lo:
		case seen&(seen-1) == 0: // one character, the common case: one group
			g.groups = append(g.groups, group{child: child, char: g.itemsBuf[lo].char, lo: lo, hi: hi, fresh: fresh})
		default:
			g.sortByChar(child, lo)
		}
	}

	g.curDepth = nodes[v].Depth
	_, g.palindrome = chosen(g.set.Str(nodes[v].SID)[nodes[v].Pos : nodes[v].Pos+g.curDepth])
	g.gi, g.gj, g.ii, g.jj = 0, 1, 0, 0
	g.active = len(g.groups) >= 2
}

// sortByChar stable-counting-sorts itemsBuf[lo:], one child's survivors in
// preorder, by left character, and appends one group per character present.
func (g *nodeGenerator) sortByChar(child, lo int32) {
	// The second buffer of the sort is itemsBuf's own tail.
	end := len(g.itemsBuf)
	g.itemsBuf = append(g.itemsBuf, g.itemsBuf[lo:]...)
	src := g.itemsBuf[end:]
	var count [seq.NumLeftChars]int32
	for _, it := range src {
		count[it.char]++
	}
	var slot [seq.NumLeftChars]int // each character's group
	for ch, k := range count {
		if k > 0 {
			slot[ch] = len(g.groups)
			g.groups = append(g.groups, group{child: child, char: seq.Code(ch), lo: lo, hi: lo})
			lo += k
		}
	}
	// A group's hi is its write cursor until the scatter is done.
	for _, it := range src {
		gr := &g.groups[slot[it.char]]
		g.itemsBuf[gr.hi] = it
		gr.hi++
		gr.fresh = gr.fresh || it.sid >= g.freshID
	}
	g.itemsBuf = g.itemsBuf[:end]
}

// emit appends pairs from the current node until dst reaches want length or
// the node is exhausted.
func (g *nodeGenerator) emit(dst []Pair, want int) []Pair {
	for len(dst) < want {
		// Advance to the next compatible group pair if needed. Two all-stale
		// groups cannot produce a fresh pair, so their whole cartesian
		// product is skipped in O(1).
		for g.gi < len(g.groups) {
			if g.gj >= len(g.groups) {
				g.gi++
				g.gj = g.gi + 1
				continue
			}
			if !compatible(g.groups[g.gi], g.groups[g.gj]) ||
				!(g.groups[g.gi].fresh || g.groups[g.gj].fresh) {
				g.gj++
				continue
			}
			break
		}
		if g.gi >= len(g.groups) {
			g.active = false
			return dst
		}
		ga, gb := g.groups[g.gi], g.groups[g.gj]
		a := g.itemsBuf[ga.lo+g.ii]
		b := g.itemsBuf[gb.lo+g.jj]

		// Advance the inner cursors for next time.
		g.jj++
		if gb.lo+g.jj >= gb.hi {
			g.jj = 0
			g.ii++
			if ga.lo+g.ii >= ga.hi {
				g.ii = 0
				g.gj++
			}
		}

		if a.sid < g.freshID && b.sid < g.freshID {
			// Old×old inside a mixed group pair: already judged in an
			// earlier generation.
			g.stats.DiscardedStale++
			continue
		}

		if p, ok := g.canonical(a, b); ok {
			dst = append(dst, p)
			g.stats.Generated++
		}
	}
	return dst
}

// canonical puts a pair into canonical orientation, the lower-numbered
// EST's string forward. A pair whose lower EST's string is the reverse one
// stands for its mirror, which the unscheduled twin would have emitted: it
// is moved onto the other strand of each string, where an anchor at pos
// becomes one at len − pos − MatchLen. At a palindromic node that mirror is
// a product of the node itself, so the pair is dropped (the paper's rule).
// Pairs within a single EST are meaningless and dropped.
func (g *nodeGenerator) canonical(a, b item) (Pair, bool) {
	ea, eb := a.sid.EST(), b.sid.EST()
	if ea == eb {
		return Pair{}, false
	}
	if eb < ea {
		a, b = b, a
	}
	if a.sid.IsReverse() {
		if g.palindrome {
			return Pair{}, false
		}
		a.sid, a.pos = a.sid.Mate(), int32(len(g.set.Str(a.sid)))-a.pos-g.curDepth
		b.sid, b.pos = b.sid.Mate(), int32(len(g.set.Str(b.sid)))-b.pos-g.curDepth
	}
	return Pair{
		S1: a.sid, S2: b.sid,
		Pos1: a.pos, Pos2: b.pos,
		MatchLen: g.curDepth,
	}, true
}
