// Package pairgen implements the paper's §3.2: on-demand generation of
// promising pairs from a forest of local GST subtrees, in decreasing order of
// maximal common substring length.
//
// Every internal node of string-depth >= ψ is processed in decreasing
// string-depth order. Each node carries five lsets — the strings owning a
// suffix in the node's subtree, partitioned by the suffix's left-extension
// character (A, C, G, T, or λ). At an internal node, duplicate string
// occurrences across children are removed with a global mark array,
// cartesian products across (child, character) groups emit the pairs whose
// maximal common substring is the node's path label (Lemma 1), and the
// surviving entries become the node's own lsets.
//
// The paper keeps lsets as linked lists with O(1) concatenation. This
// package keeps them in flat, forest-lifetime arenas instead, using the
// DFS-array invariant that the leaves of a subtree are contiguous in
// preorder: one item array holds one 8-byte entry per leaf in preorder (the
// left character packed beside the position), and a processed node's five
// lsets are the front of its own leaf range, sorted by left character; an
// 8-byte row per internal node records the range's length and how much of it
// is live. A node's children tile its range, so processing it is one forward
// scan with a running leaf count — no per-node index — followed by writing
// the survivors back over the children's ranges character by character,
// children in order within a character. That is exactly the order list
// concatenation produced, so the emitted pair sequence is the linked
// version's (reference_test.go keeps that version as the oracle). The
// write-back is one more sequential pass over entries the dedup scan has
// just touched, so the time bound is the paper's, and storage is still O(N)
// — 8 B per leaf, 8 per internal node, 12 per internal node of depth >= ψ,
// allocated once per forest — with no per-entry link and no list heads.
//
// The generator is resumable: it remembers its position inside a node's
// cartesian products, so callers pull pairs in batches without ever
// materializing a node's full pair set (the on-demand property that keeps
// the paper's memory footprint linear).
package pairgen

import (
	"fmt"
	"time"

	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/telemetry"
)

// Pair is one promising pair in canonical orientation: S1 is the forward
// string of the lower-numbered EST; S2 belongs to a strictly higher-numbered
// EST in either orientation. The strings share the exact anchor match
// S1[Pos1:Pos1+MatchLen] == S2[Pos2:Pos2+MatchLen], a maximal common
// substring of the two strings.
type Pair struct {
	S1, S2     seq.StringID
	Pos1, Pos2 int32
	MatchLen   int32
}

// ESTs returns the pair's EST ids (i < j).
func (p Pair) ESTs() (seq.ESTID, seq.ESTID) { return p.S1.EST(), p.S2.EST() }

// Stats counts generator activity.
type Stats struct {
	// NodesProcessed is the number of tree nodes of depth >= ψ processed.
	NodesProcessed int64
	// Generated counts canonical pairs emitted.
	Generated int64
	// DiscardedOrientation counts pairs dropped by the canonical-
	// orientation rule (the equivalent reverse-complemented duplicate is
	// emitted elsewhere).
	DiscardedOrientation int64
	// DiscardedSelf counts pairs of a string with its own EST's other
	// orientation (or itself), which carry no clustering information.
	DiscardedSelf int64
	// DiscardedStale counts pairs suppressed by the fresh-only mode because
	// both strings predate the current batch: their maximal common substring
	// is a property of the two strings alone, so the pair was already
	// generated — and judged — in the generation that introduced the younger
	// of the two.
	DiscardedStale int64
	// Entries is the number of lset entries (leaves of depth >= ψ) — the
	// generator's O(N) working set.
	Entries int64
}

// treeState locates one tree's share of the generator's arenas.
type treeState struct {
	// nodes is the tree's node array, held directly so that reaching a node
	// costs no load of the Tree in between.
	nodes []suffix.Node
	// leaf and internal are the tree's bases into items and rows; int, so a
	// forest of more than 2³¹ leaves cannot wrap.
	leaf, internal int
}

// nodeRef addresses one internal node in the forest. leavesBefore is the
// number of leaves preceding it in its tree's preorder — where its leaf range
// starts, and, subtracted from node, its rank among the tree's internal nodes.
type nodeRef struct {
	tree, node, leavesBefore int32
}

// row is the lset state of one internal node, indexed by internal rank.
type row struct {
	// leaves is the length of the node's leaf range; live is how many
	// entries at the front of that range are its surviving lset entries.
	leaves, live int32
}

// group is a snapshot of one (child, left-character) lset taken while
// processing an internal node; pairs are cartesian products across
// compatible groups.
type group struct {
	child int32
	char  seq.Code
	// items indexes into the generator's itemsBuf scratch.
	lo, hi int32
	// fresh reports whether any item belongs to the current batch; a pair of
	// all-stale groups cannot produce a fresh pair and is skipped wholesale.
	fresh bool
}

// item is one lset entry: a string and the start of its suffix in it, with
// the suffix's left-extension character packed under the position so that
// an lset range needs no side table to say where each character's entries
// end.
type item struct {
	sid     seq.StringID
	posChar int32 // pos<<charBits | left character
}

const charBits = 3 // seq.NumLeftChars <= 1<<charBits

func (it item) pos() int32     { return it.posChar >> charBits }
func (it item) char() seq.Code { return seq.Code(it.posChar & (1<<charBits - 1)) }

// Generator produces promising pairs on demand.
type Generator struct {
	psi   int32
	trees []treeState
	// freshID is the fresh-only threshold: pairs whose strings both have an
	// id below it are suppressed (0 emits everything). Generations are
	// monotone in string id, so freshness is a single comparison.
	freshID seq.StringID

	// items holds one entry per leaf, in preorder. Once an internal node has
	// been processed, the front of its leaf range holds its surviving lset
	// entries sorted by left character, and its row says how many.
	items []item
	rows  []row

	// order lists the internal nodes of depth >= ψ, deepest first.
	order  []nodeRef
	cursor int

	mark  []int32
	token int32

	// Iteration state over the current internal node's groups.
	groups   []group
	itemsBuf []item
	curDepth int32
	gi, gj   int
	ii, jj   int32
	active   bool

	stats Stats
	obs   Observer
}

// Observer carries optional live telemetry hooks; the zero value disables
// them. Each field is checked with a nil test in the hot loop, so a
// generator without an observer pays (nearly) nothing, and an attached
// observer pays only atomic updates — cheap enough to leave on even with no
// sink draining the metrics (see BenchmarkNextInstrumented).
type Observer struct {
	// MCSLen observes the maximal-common-substring length of every
	// canonical pair emitted — the paper's pairs-by-length distribution.
	MCSLen *telemetry.Histogram
	// BatchNs observes the latency of each Next call, in nanoseconds.
	BatchNs *telemetry.Histogram
	// Clock supplies the elapsed time base for BatchNs; nil means wall
	// time. Deterministic sim runs inject the engine's clock so latency
	// observations replay identically.
	Clock func() time.Duration
	// Generated counts canonical pairs emitted.
	Generated *telemetry.Counter
}

// Observe installs (or replaces) the generator's telemetry hooks.
func (g *Generator) Observe(o Observer) {
	if o.BatchNs != nil && o.Clock == nil {
		o.Clock = telemetry.NewWallClock().Elapsed
	}
	g.obs = o
}

// New builds a generator over the given forest. psi is the promising-pair
// threshold ψ: only nodes of string-depth >= psi generate pairs. The bucket
// window w used to build the forest must satisfy w <= psi, otherwise pairs
// whose maximal common substring is shorter than w would be silently lost;
// the caller is responsible for that invariant (it is validated by the
// clustering layer).
func New(set *seq.SetS, forest []*suffix.Tree, psi int) (*Generator, error) {
	return NewFresh(set, forest, psi, 0)
}

// NewFresh builds a generator restricted to pairs involving the current
// batch: only pairs where at least one string has generation >= fresh are
// emitted (the paper's Lemmas 1–4 guarantee an old×old pair's maximal common
// substring — and hence the pair itself — was already produced by the run
// that introduced the younger string). fresh == 0 emits every pair, exactly
// like New. Lsets are still built over all suffixes in the forest, so the
// emitted fresh pairs are identical to what a full run would produce for
// them, dedup included.
func NewFresh(set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) (*Generator, error) {
	if psi < 1 {
		return nil, fmt.Errorf("pairgen: psi must be >= 1, got %d", psi)
	}
	g := &Generator{
		psi:   int32(psi),
		mark:  make([]int32, set.NumStrings()),
		trees: make([]treeState, len(forest)),
	}
	if fresh > 0 {
		g.freshID = set.GenStartString(fresh)
	}
	// Size the arenas from a counting pass over the nodes themselves.
	var nodes, leaves, deepLeaves, deepInternal int
	maxDepth := int32(0)
	for ti, t := range forest {
		g.trees[ti] = treeState{nodes: t.Nodes, leaf: leaves, internal: nodes - leaves}
		nodes += len(t.Nodes)
		for i, n := range t.Nodes {
			deep := n.Depth >= g.psi
			if n.RML == int32(i) {
				leaves++
				if deep {
					deepLeaves++
				}
			} else if deep {
				deepInternal++
				if n.Depth > maxDepth {
					maxDepth = n.Depth
				}
			}
		}
	}
	g.stats.NodesProcessed, g.stats.Entries = int64(deepLeaves), int64(deepLeaves)
	g.items = make([]item, leaves)
	g.rows = make([]row, nodes-leaves)
	g.order = make([]nodeRef, deepInternal)

	// One sequential pass initializes every leaf's single-entry lset and
	// histograms the deep internal nodes by depth for buildOrder.
	byDepth := make([]int, maxDepth+1)
	next := g.items
	for _, ts := range g.trees {
		for i, n := range ts.nodes {
			if n.RML == int32(i) {
				if n.Pos >= 1<<(31-charBits) {
					return nil, fmt.Errorf("pairgen: suffix position %d of string %d does not fit %d bits", n.Pos, n.SID, 31-charBits)
				}
				next[0] = item{sid: n.SID, posChar: n.Pos<<charBits | int32(set.LeftChar(n.SID, n.Pos))}
				next = next[1:]
			} else if n.Depth >= g.psi {
				byDepth[n.Depth]++
			}
		}
	}
	g.buildOrder(byDepth)
	return g, nil
}

// buildOrder sorts the deep internal nodes of the forest by decreasing
// string-depth, breaking ties by descending node index so that children
// (which follow their parent in preorder and are deeper) are always
// processed before their parent. Leaves need no processing — NewFresh has
// initialized them — so they stay out. The sort is the O(sorting) term of the
// paper's Lemma 4; a counting sort keeps it linear. counts[d] holds the
// number of deep internal nodes of depth d and is consumed.
func (g *Generator) buildOrder(counts []int) {
	// Prefix-sum from the deepest down so larger depths come first.
	acc := 0
	for d := len(counts) - 1; d >= 0; d-- {
		acc, counts[d] = acc+counts[d], acc
	}
	// Walk node indices in reverse so, within a depth class, higher
	// indices are placed first (children before parents).
	end := len(g.items)
	for ti := len(g.trees) - 1; ti >= 0; ti-- {
		ts := g.trees[ti]
		before := int32(end - ts.leaf) // leaves of the tree not yet walked past
		end = ts.leaf
		for i := len(ts.nodes) - 1; i >= 0; i-- {
			n := ts.nodes[i]
			if n.RML == int32(i) {
				before--
			} else if n.Depth >= g.psi {
				g.order[counts[n.Depth]] = nodeRef{tree: int32(ti), node: int32(i), leavesBefore: before}
				counts[n.Depth]++
			}
		}
	}
}

// Stats returns a copy of the activity counters.
func (g *Generator) Stats() Stats { return g.stats }

// Remaining reports whether more pairs may still be produced (conservative:
// true until the final node is exhausted).
func (g *Generator) Remaining() bool {
	return g.active || g.cursor < len(g.order)
}

// Next appends up to max pairs to dst and returns the extended slice.
// A return with no appended pairs means the generator is exhausted.
func (g *Generator) Next(dst []Pair, max int) []Pair {
	var start time.Duration
	if g.obs.BatchNs != nil {
		start = g.obs.Clock()
	}
	want := len(dst) + max
	for len(dst) < want && g.Remaining() {
		if g.active {
			dst = g.emit(dst, want)
			continue
		}
		g.processNode(g.order[g.cursor])
		g.cursor++
	}
	if g.obs.BatchNs != nil {
		g.obs.BatchNs.Observe((g.obs.Clock() - start).Nanoseconds())
	}
	return dst
}

// processNode dedups and snapshots an internal node's child lsets, arms pair
// iteration over the snapshot, and leaves the survivors as the node's own
// lsets.
func (g *Generator) processNode(ref nodeRef) {
	ts := &g.trees[ref.tree]
	nodes := ts.nodes
	v := ref.node
	g.stats.NodesProcessed++

	// Dedup every child lset with a fresh token, snapshotting survivors.
	// The children's leaf ranges tile v's, so one forward scan with a running
	// leaf count finds each child's range and, for an internal child, its row.
	g.token++
	g.groups = g.groups[:0]
	g.itemsBuf = g.itemsBuf[:0]
	childOrd := int32(0)
	before := ref.leavesBefore
	for c := v + 1; ; c = nodes[c].RML + 1 {
		r := row{leaves: 1, live: 1}
		if nodes[c].RML != c {
			r = g.rows[ts.internal+int(c-before)]
		}
		at := ts.leaf + int(before)
		g.snapshot(childOrd, g.items[at:at+int(r.live)])
		before += r.leaves
		childOrd++
		if nodes[c].RML == nodes[v].RML {
			break
		}
	}

	// Union the surviving child lsets into this node: character by
	// character, children in order — the order list concatenation gave. The
	// snapshot holds every survivor, so overwriting the children's ranges is
	// safe; a tree root's lsets are never read, so it skips the write.
	if v != 0 {
		var at [seq.NumLeftChars]int
		for _, gr := range g.groups {
			at[gr.char] += int(gr.hi - gr.lo)
		}
		next := ts.leaf + int(ref.leavesBefore)
		for ch, k := range at {
			at[ch] = next
			next += k
		}
		for _, gr := range g.groups {
			at[gr.char] += copy(g.items[at[gr.char]:], g.itemsBuf[gr.lo:gr.hi])
		}
		g.rows[ts.internal+int(v-ref.leavesBefore)] = row{
			leaves: before - ref.leavesBefore,
			live:   int32(len(g.itemsBuf)),
		}
	}

	g.curDepth = nodes[v].Depth
	g.gi, g.gj, g.ii, g.jj = 0, 1, 0, 0
	g.active = len(g.groups) >= 2
}

// snapshot appends the entries of one child's lsets that no earlier child
// of the current node has contributed to itemsBuf, one group per left
// character present (the entries arrive sorted by it).
func (g *Generator) snapshot(child int32, lsets []item) {
	open := false // whether the last group belongs to this child
	for _, it := range lsets {
		if g.mark[it.sid] == g.token {
			continue
		}
		g.mark[it.sid] = g.token
		if !open || g.groups[len(g.groups)-1].char != it.char() {
			at := int32(len(g.itemsBuf))
			g.groups = append(g.groups, group{child: child, char: it.char(), lo: at, hi: at})
			open = true
		}
		gr := &g.groups[len(g.groups)-1]
		gr.hi++
		gr.fresh = gr.fresh || it.sid >= g.freshID
		g.itemsBuf = append(g.itemsBuf, it)
	}
}

// compatible reports whether two groups may produce pairs: different
// children, and left characters that differ or are both λ (Algorithm 1's
// ProcessInternalNode condition).
func compatible(a, b group) bool {
	if a.child == b.child {
		return false
	}
	return a.char != b.char || (a.char == seq.Lambda && b.char == seq.Lambda)
}

// emit appends pairs from the current node until dst reaches want length or
// the node is exhausted.
func (g *Generator) emit(dst []Pair, want int) []Pair {
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
			if g.obs.MCSLen != nil {
				g.obs.MCSLen.Observe(int64(p.MatchLen))
			}
			if g.obs.Generated != nil {
				g.obs.Generated.Inc()
			}
		}
	}
	return dst
}

// canonical applies the paper's duplicate-avoidance rule: a pair is reported
// only when the string of the lower-numbered EST appears in forward
// orientation (its reverse-complemented twin is generated — and discarded —
// elsewhere). Pairs within a single EST are meaningless and dropped.
func (g *Generator) canonical(a, b item) (Pair, bool) {
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
		Pos1: a.pos(), Pos2: b.pos(),
		MatchLen: g.curDepth,
	}, true
}
