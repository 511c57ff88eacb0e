// Package pairgen implements the paper's §3.2: on-demand generation of
// promising pairs from a forest of local GST subtrees, in decreasing order of
// maximal common substring length.
//
// Internal nodes of string-depth >= ψ are processed in decreasing
// string-depth order. Each node carries five lsets — the strings owning a
// suffix in the node's subtree, partitioned by the suffix's left-extension
// character (A, C, G, T, or λ). At an internal node, duplicate string
// occurrences across children are removed with a global mark array, and
// cartesian products across (child, character) groups emit the pairs whose
// maximal common substring is the node's path label (Lemma 1).
//
// The paper keeps lsets as linked lists, concatenated bottom-up in O(1).
// This package keeps no lsets, and no nodes either: a tree is its bucket's
// suffixes in suffix order with their LCPs (package suffix), and an internal
// node is an LCP interval, whose leaves are a contiguous range that never
// moves. An entry survives the dedup of every node from its leaf up to v
// exactly when it is the first leaf of its string inside v's range. So v's
// groups are cut from the range at the moment v is processed: walk it child
// by child, a child ending where the LCP equals v's depth, keep the first
// leaf of each string — a leaf is a text position, whose string the set's
// directory names (seq.SetS.Locate) — stable-sort each child's survivors by
// left character — the order list concatenation gave, so the emitted pair
// sequence is the linked version's (reference_test.go keeps that version,
// and the node-array generator this one replaced, as oracles). The only
// per-suffix state is one byte: the leaf's left character.
//
// Nothing is maintained for a node's ancestors, so a node that cannot emit is
// not visited. Construction finds the intervals of depth >= ψ in one stack
// pass per tree, ORs the left characters beneath each from its children,
// and schedules only those under which two characters, or λ, occur (two
// groups pair only when their characters differ or are both λ) and, in
// fresh-only mode, a leaf of the current batch. A scheduled node costs the
// length of its leaf range, dead entries included, where the lists cost the
// survivors: the total is bounded by the sum over deep leaves of their deep-
// ancestor counts — at most d − ψ + 1 for a leaf at depth d — and long
// homopolymer runs approach it (DESIGN.md §1). Storage is 1 B per suffix,
// 8 B per scheduled node and 4 B per tree, allocated once per forest.
// Subtrees are independent, so generators over disjoint chunks of a forest
// together emit exactly the whole forest's pairs and counters; the
// sequential engine gives each of its workers one.
//
// The forest indexes every EST and its reverse complement, so a maximal
// match with label L between strings x and y reappears as rc(L) between
// rc(x) and rc(y): the node's twin, at the same depth. The paper generates
// both and drops at emit time the copy in which the lower EST's string is
// the reverse one. This package schedules one node of each twin pair
// instead (chosen, below) and emits every pair of it, mirroring a pair whose
// lower EST's string is the reverse one onto the other strands. A
// palindromic label (L = rc(L)) is its own twin and keeps the paper's rule.
// Which twin is chosen is a function of the label alone, so the generators
// of disjoint chunks, ranks or shards still emit each pair once. Where a
// string holds a label more than once, the twin may keep another occurrence
// and so pair other anchors; each pair of strings with a common substring
// of length >= ψ is still generated, first at its longest (DESIGN.md §1).
//
// The generator is resumable: it remembers its position inside a node's
// cartesian products, so callers pull pairs in batches without ever
// materializing a node's full pair set (the on-demand property that keeps
// the paper's memory footprint linear).
package pairgen

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pace/internal/seq"
	"pace/internal/suffix"
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
	// Generated counts canonical pairs emitted.
	Generated int64
	// DiscardedStale counts pairs suppressed by the fresh-only mode because
	// both strings predate the current batch: their maximal common substring
	// is a property of the two strings alone, so the pair was already
	// generated — and judged — in the generation that introduced the younger
	// of the two. Only scheduled nodes count them.
	DiscardedStale int64
}

// depthCmp compares the exact LCP at leaf i of t, whose LCP bytes are lcp,
// with d: negative, zero or positive. A saturated byte is finished only when
// d could equal it.
func depthCmp(t *suffix.Tree, lcp []uint8, i, d int32) int32 {
	h := int32(lcp[i])
	if h == suffix.MaxLCP && d >= suffix.MaxLCP {
		h = t.LCPAt(int(i))
	}
	return h - d
}

// nodeRef addresses one scheduled node: the first leaf after its first
// child, which is where the LCP first equals its depth. No other node
// starts a second child there, so the leaf names the node.
type nodeRef struct {
	tree, at int32
}

// group is one (child, left-character) lset cut from the leaf range of the
// internal node being processed; pairs are cartesian products across
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

// item is one lset entry: a string, the start of its suffix in it, and the
// suffix's left-extension character.
type item struct {
	sid  seq.StringID
	pos  int32
	char seq.Code
}

// Per-leaf flags: the leaf's left character in the low seq.NumLeftChars
// bits, once its parent is deep, and whether a scheduled node starts its
// second child at the leaf. On the construction pass's stack the same low
// bits hold the left characters beneath an open node, and freshBit whether
// a leaf of the current batch is beneath it.
const (
	charMask  = 1<<seq.NumLeftChars - 1
	freshBit  = 1 << seq.NumLeftChars
	scheduled = freshBit << 1
)

// open is a node the construction pass has entered and not yet left.
type open struct {
	depth int32
	at    int32 // the leaf its second child starts at
	below uint8 // charMask and freshBit bits of the children closed so far
}

// Generator produces promising pairs on demand.
type Generator struct {
	// set locates positions and gives string lengths, which mirroring needs.
	set   *seq.SetS
	psi   int32
	trees []*suffix.Tree
	// base[t] is where tree t's leaves start in flags. A table holds at most
	// math.MaxInt32 suffixes, so int32 offsets cannot wrap.
	base []int32
	// freshID is the fresh-only threshold: pairs whose strings both have an
	// id below it are suppressed (0 emits everything). Generations are
	// monotone in string id, so freshness is a single comparison; freshAt
	// is the string's start, the same test on a position.
	freshID seq.StringID
	freshAt int32

	// flags holds every leaf's flags, tree after tree in suffix order.
	flags []uint8

	// order lists the internal nodes of depth >= ψ that can emit a pair,
	// deepest first.
	order  []nodeRef
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

// New builds a generator over the given forest. psi is the promising-pair
// threshold ψ: only nodes of string-depth >= psi generate pairs. The bucket
// window w used to build the forest must satisfy w <= psi, otherwise pairs
// whose maximal common substring is shorter than w would be silently lost;
// the caller is responsible for that invariant (it is validated by the
// clustering layer). Only bench/shadow.go calls it outside tests, and
// ROADMAP item 22(b) deletes it with the shadow.
func New(set *seq.SetS, forest []*suffix.Tree, psi int) (*Generator, error) {
	return NewFresh(set, forest, psi, 0)
}

// NewFresh builds a generator restricted to pairs involving the current
// batch: only pairs where at least one string has generation >= fresh are
// emitted (the paper's Lemmas 1–4 guarantee an old×old pair's maximal common
// substring — and hence the pair itself — was already produced by the run
// that introduced the younger string). fresh == 0 emits every pair, exactly
// like New. Dedup still runs over all suffixes in the forest, so the emitted
// fresh pairs are identical to what a full run would produce for them.
func NewFresh(set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) (*Generator, error) {
	if psi < 1 {
		return nil, fmt.Errorf("pairgen: psi must be >= 1, got %d", psi)
	}
	g := &Generator{
		set:   set,
		psi:   int32(psi),
		mark:  make([]int32, set.NumStrings()),
		trees: forest,
		base:  make([]int32, len(forest)),
		// Sized past their first doublings, which would otherwise be most of
		// a drain's allocations.
		groups:   make([]group, 0, 16),
		itemsBuf: make([]item, 0, 64),
	}
	if fresh > 0 {
		g.freshID = set.GenStartString(fresh)
	}
	g.freshAt = set.Start(g.freshID)
	leaves := 0
	for ti, t := range forest {
		g.base[ti] = int32(leaves)
		leaves += len(t.Refs())
	}
	g.flags = make([]uint8, leaves)
	// A node's label is a substring, so no node is deeper than the longest
	// string is long.
	longest := 0
	for id := 0; id < set.NumStrings(); id++ {
		longest = max(longest, len(set.Str(seq.StringID(id))))
	}
	byDepth := make([]int, longest+1)
	var stack []open
	total := 0
	for ti, t := range forest {
		total += g.mask(t, g.flags[g.base[ti]:][:len(t.Refs())], &stack, byDepth)
	}

	// Counting-sort the scheduled nodes by decreasing string-depth, breaking
	// ties by descending position in the forest. Two nodes of equal depth
	// are disjoint, so this is descending (tree, left boundary): the
	// preorder tie order. The sort is the O(sorting) term of the paper's
	// Lemma 4. Prefix-sum from the deepest down so larger depths come first;
	// place then walks the forest in reverse, putting higher positions first.
	g.order = make([]nodeRef, total)
	acc := 0
	for d := longest; d >= 0; d-- {
		acc, byDepth[d] = acc+byDepth[d], acc
	}
	g.place(byDepth)
	return g, nil
}

// mask is construction's pass over one tree, left to right with a stack of
// the open nodes of depth >= ψ: an LCP deeper than the top opens a node, one
// shallower closes the nodes deeper than it, and one below ψ closes them all
// and opens none, since no shallow node is ever scheduled. A leaf's bits go
// to the node its LCP with the next leaf opens or continues and a closing
// node's to its parent, so each node leaves with the left characters and
// the freshness of everything beneath it. mask stores each leaf's left
// character if the leaf's parent — the deeper of its two LCPs — is deep,
// since no other leaf is ever grouped, marks and histograms by depth the
// nodes to schedule, and returns how many there are. With no fresh
// generation every position is >= freshAt, so every leaf counts as fresh
// and the second condition is vacuous.
func (g *Generator) mask(t *suffix.Tree, flags []uint8, stack *[]open, byDepth []int) int {
	refs, lcp := t.Refs(), t.LCP()
	deep := uint8(min(g.psi, suffix.MaxLCP))
	total := 0
	st := (*stack)[:0]
	var below uint8 // the bits of the subtree left of leaf i
	for i := 0; ; i++ {
		if i > 0 {
			h := int32(0) // past the last leaf every node closes
			if i < len(refs) {
				if h = int32(lcp[i]); h == suffix.MaxLCP {
					h = t.LCPAt(i)
				}
			}
			for len(st) > 0 && st[len(st)-1].depth > h {
				v := st[len(st)-1]
				st = st[:len(st)-1]
				v.below |= below
				below = v.below
				// Two groups pair only when their characters differ or are
				// both λ: a range holding one non-λ character has no
				// product. Of a twin pair, only the chosen node is scheduled.
				if ch := v.below & charMask; (ch&(ch-1) != 0 || ch == 1<<seq.Lambda) && v.below&freshBit != 0 {
					r := refs[v.at]
					if keep, _ := chosen(g.set.Text()[r : r+v.depth]); keep {
						flags[v.at] |= scheduled
						byDepth[v.depth]++
						total++
					}
				}
			}
			if i == len(refs) {
				break
			}
			if top := len(st) - 1; top >= 0 && st[top].depth == h {
				st[top].below |= below
			} else if h >= g.psi {
				st = append(st, open{depth: h, at: int32(i), below: below})
			}
		}
		r := refs[i]
		below = 0
		if r >= g.freshAt {
			below = freshBit
		}
		if lcp[i] >= deep || i+1 < len(lcp) && lcp[i+1] >= deep {
			flags[i] = 1 << g.set.LeftChar(r)
			below |= flags[i]
		}
	}
	*stack = st
	return total
}

// chosen reports whether a node with label l is the one of l and rc(l) that
// is scheduled, and whether l is its own reverse complement (a palindrome,
// which is chosen). It compares l with rc(l), which nearly always ends at
// the first character, and keeps the smaller or, when the parity of
// l[d/2−1] + l[d−d/2] is odd, the larger. The two positions mirror each
// other and differ, and complementing both keeps the parity, so twins
// agree on the direction; it is what balances the choice across buckets,
// where a plain l <= rc(l) would keep about 7/8 of the nodes of A-prefixed
// buckets and 1/8 of T-prefixed ones.
func chosen(l seq.Sequence) (keep, palindrome bool) {
	d := len(l)
	i, j := 0, d-1
	for ; i <= j; i, j = i+1, j-1 {
		if a, b := l[i], seq.Complement(l[j]); a != b {
			flip := d >= 2 && (l[d/2-1]+l[d-d/2])&1 == 1
			return (a < b) != flip, false
		}
	}
	return true, true
}

// place writes the scheduled nodes into order at the cursors byDepth holds,
// scanning flags in reverse so that, within a depth, higher positions come
// first. It tests eight flags a load and reads a node only if scheduled.
func (g *Generator) place(byDepth []int) {
	const lanes = 0x0101010101010101
	ti := len(g.trees) - 1
	put := func(j int) {
		for int(g.base[ti]) > j {
			ti--
		}
		at := int32(j) - g.base[ti]
		slot := &byDepth[g.trees[ti].LCPAt(int(at))]
		g.order[*slot] = nodeRef{tree: int32(ti), at: at}
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
func (g *Generator) Stats() Stats { return g.stats }

// Remaining reports whether more pairs may still be produced (conservative:
// true until the final node is exhausted).
func (g *Generator) Remaining() bool {
	return g.active || g.cursor < len(g.order)
}

// Next appends up to max pairs to dst and returns the extended slice.
// A return with no appended pairs means the generator is exhausted.
func (g *Generator) Next(dst []Pair, max int) []Pair {
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
func (g *Generator) processNode(ref nodeRef) {
	t := g.trees[ref.tree]
	refs, lcp := t.Refs(), t.LCP()
	flags := g.flags[g.base[ref.tree]:][:len(refs)]
	d := t.LCPAt(int(ref.at))
	// The first child is the run of deeper LCPs before ref.at.
	lo := ref.at - 1
	for lo > 0 && depthCmp(t, lcp, lo, d) > 0 {
		lo--
	}

	// The children's ranges tile the node's. Within each, the first leaf of
	// a string no earlier child has shown survives: the mark array with a
	// fresh token per node is the dedup.
	g.token++
	g.groups = g.groups[:0]
	g.itemsBuf = g.itemsBuf[:0]
	for c, child := lo, int32(0); ; child++ {
		first := int32(len(g.itemsBuf))
		var seen uint8 // left characters among the child's survivors
		fresh := false
		var next int32 // the next leaf's LCP against d: < 0 ends the node
		for {
			if sid, pos := g.set.Locate(refs[c]); g.mark[sid] != g.token {
				g.mark[sid] = g.token
				ch := flags[c] & charMask
				seen |= ch
				fresh = fresh || sid >= g.freshID
				g.itemsBuf = append(g.itemsBuf, item{sid: sid, pos: pos, char: seq.Code(bits.TrailingZeros8(ch))})
			}
			if c++; c == int32(len(refs)) {
				next = -1
				break
			}
			if next = depthCmp(t, lcp, c, d); next <= 0 {
				break
			}
		}
		switch last := int32(len(g.itemsBuf)); {
		case last == first:
		case seen&(seen-1) == 0: // one character, the common case: one group
			g.groups = append(g.groups, group{child: child, char: g.itemsBuf[first].char, lo: first, hi: last, fresh: fresh})
		default:
			g.sortByChar(child, first)
		}
		if next < 0 {
			break
		}
	}

	g.curDepth = d
	r := refs[ref.at]
	_, g.palindrome = chosen(g.set.Text()[r : r+d])
	g.gi, g.gj, g.ii, g.jj = 0, 1, 0, 0
	g.active = len(g.groups) >= 2
}

// sortByChar stable-counting-sorts itemsBuf[lo:], one child's survivors in
// preorder, by left character, and appends one group per character present.
func (g *Generator) sortByChar(child, lo int32) {
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
func (g *Generator) canonical(a, b item) (Pair, bool) {
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
