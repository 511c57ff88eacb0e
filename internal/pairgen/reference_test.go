package pairgen

// The linked-list generator the leaf-range arenas replaced, kept verbatim
// (types renamed ref*) as the differential oracle: TestMatchesReference and
// FuzzGeneratorMatchesReference hold the production generator to its pairs
// and counters. It visits both nodes of a twin pair and drops, at emit time,
// the copy of a pair whose lower EST's string is the reverse one; refStats
// keeps the count of those the production generator has no counter for.

import (
	"fmt"

	"pace/internal/seq"
	"pace/internal/suffix"
)

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
	tree *suffix.Tree
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

	order  []nodeRef
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

func newRefFresh(set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) (*refGenerator, error) {
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
	g.order = make([]nodeRef, total)
	// Walk node indices in reverse so, within a depth class, higher
	// indices are placed first (children before parents).
	for ti := len(g.trees) - 1; ti >= 0; ti-- {
		nodes := g.trees[ti].tree.Nodes
		for i := len(nodes) - 1; i >= 0; i-- {
			d := nodes[i].Depth
			if d >= g.psi {
				g.order[start[d]] = nodeRef{tree: int32(ti), node: int32(i)}
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
func (g *refGenerator) processNode(ref nodeRef) {
	ts := g.trees[ref.tree]
	t := ts.tree
	g.stats.NodesProcessed++
	if t.IsLeaf(ref.node) {
		n := t.Nodes[ref.node]
		c := g.set.LeftChar(n.SID, n.Pos)
		e := int32(len(ts.pool))
		ts.pool = append(ts.pool, entry{sid: n.SID, pos: n.Pos, next: -1})
		g.stats.Entries++
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
		g.stats.DiscardedSelf++
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
