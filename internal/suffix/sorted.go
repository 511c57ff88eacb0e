package suffix

import (
	"pace/internal/fanout"
	"pace/internal/seq"
)

// maxLCP is where a sorted table's LCP bytes saturate: a stored maxLCP means
// "at least maxLCP", and a reader that needs the exact value finishes the
// count from there with commonPrefix.
const maxLCP = 255

// NewSortedBuckets returns an empty sorted table for window w.
func NewSortedBuckets(w int) *Buckets {
	return &Buckets{w: w, off: make([]int32, NumBuckets(w)+1), sorted: true}
}

// absorbSorted is Absorb on a sorted table. merge lays the batch out behind
// each bucket's old range in new arrays, on up to workers goroutines; each
// touched bucket's batch suffixes are then ordered by the builder's
// partition, which yields their LCPs, and merged with the old range
// (mergeInto), on a builder per chunk of at most workers. On error the table
// is unchanged.
func (t *Buckets) absorbSorted(set *seq.SetS, lo, hi seq.StringID, workers int) ([]int32, error) {
	next := &Buckets{w: t.w, refs: t.refs, off: t.off, sorted: true}
	if err := next.merge(set, nil, 0, lo, hi, workers); err != nil {
		return nil, err
	}
	next.lcp = make([]uint8, len(next.refs))
	for b := 0; b+1 < len(t.off); b++ {
		copy(next.lcp[next.off[b]:], t.lcps(b))
	}
	touched := grown(t.off, next.off)
	cuts := fanout.Cuts(len(touched), workers, func(i int) int { return len(next.Refs(int(touched[i]))) })
	// A chunk cannot fail: every check that could was passed above.
	_ = fanout.Run(len(cuts)-1, func(k int) error {
		ids := touched[cuts[k]:cuts[k+1]]
		largest := 0
		for _, b := range ids {
			largest = max(largest, len(next.Refs(int(b)))-len(t.Refs(int(b))))
		}
		bld := newBuilder(set, t.w, 0, largest)
		bld.order, bld.lcps = make([]SuffixRef, 0, largest), make([]uint8, 0, largest)
		for _, b := range ids {
			// sort copies the batch's suffixes out before mergeInto overwrites them.
			refs, old := next.Refs(int(b)), t.Refs(int(b))
			order, orderLCP := bld.sort(refs[len(old):])
			bld.mergeInto(refs, next.lcps(int(b)), old, t.lcps(int(b)), order, orderLCP)
		}
		return nil
	})
	*t = *next
	return touched, nil
}

// lcps returns the LCP bytes of bucket b of a sorted table.
func (t *Buckets) lcps(b int) []uint8 {
	lo, hi := t.off[b], t.off[b+1]
	return t.lcp[lo:hi:hi]
}

// sort orders suffixes, which share their first w characters and come in
// (SID, Pos) order, as their subtree's preorder leaves: it runs the build
// without writing nodes and returns the leaves with each one's saturated LCP
// with the leaf before it, both valid until the next call.
func (b *builder) sort(suffixes []SuffixRef) ([]SuffixRef, []uint8) {
	b.order, b.lcps, b.seam = b.order[:0], b.lcps[:0], 0
	work := b.work[:len(suffixes)]
	copy(work, suffixes)
	b.build(work, b.w)
	return b.order, b.lcps
}

// mergeInto writes the LCP merge of old and fresh, each in suffix order with
// its LCPs, into refs and lcp: ho and hf are the saturated LCPs of the next
// old and next fresh suffix with the one written last, which sorts before
// both. Whichever shares more with it sorts first, and the other's LCP with
// it stays, so characters are read only on a tie, from the shared depth on.
// Of two equal suffixes the old one, from an older string, goes first.
func (b *builder) mergeInto(refs []SuffixRef, lcp []uint8, old []SuffixRef, oldLCP []uint8, fresh []SuffixRef, freshLCP []uint8) {
	// Before the first, the suffix written last stands for the bucket's
	// w-character prefix, which every suffix of the bucket shares.
	i, j, ho, hf := 0, 0, uint8(b.w), uint8(b.w)
	for out := range refs {
		takeOld := j == len(fresh)
		if !takeOld && i < len(old) {
			if takeOld = ho > hf; ho == hf {
				o, f := b.set.Suffix(old[i].SID, old[i].Pos), b.set.Suffix(fresh[j].SID, fresh[j].Pos)
				c := int(ho) + commonPrefix(o[ho:], f[ho:])
				if takeOld = c == len(o) || c < len(f) && o[c] < f[c]; takeOld {
					hf = uint8(min(c, maxLCP))
				} else {
					ho = uint8(min(c, maxLCP))
				}
			}
		}
		if takeOld {
			refs[out], lcp[out] = old[i], ho
			if i++; i < len(old) {
				ho = oldLCP[i]
			}
		} else {
			refs[out], lcp[out] = fresh[j], hf
			if j++; j < len(fresh) {
				hf = freshLCP[j]
			}
		}
	}
	lcp[0] = 0
}

// open is an internal node sortedTree has met but not yet closed.
type open struct {
	depth int32
	rml   int32     // slot of its rightmost leaf
	rep   SuffixRef // the smallest (SID, Pos) beneath it so far
}

// sortedTree writes the tree of a sorted bucket at the tail of the current
// slab: a leaf per suffix at its length and a node per LCP interval,
// represented by the smallest (SID, Pos) beneath it — the builder's tree,
// node for node. A right-to-left pass with a stack of open nodes emits each
// node once its subtree is complete, from the end of the 2n-1 slots
// reserved, which leaves them in preorder; they are then moved to the front.
func (b *builder) sortedTree(refs []SuffixRef, lcp []uint8) []Node {
	n := len(refs)
	need := 2*n - 1
	if cap(b.slab)-len(b.slab) < need {
		b.slab = make([]Node, 0, max(need, min(slabNodes, 2*b.pending)))
	}
	b.base = len(b.slab)
	nodes := b.slab[b.base : b.base+need]
	// rep and rml are the smallest (SID, Pos) and the rightmost leaf of the
	// subtree completed last. Its parent is the deepest open node no deeper
	// than the next LCP, or a node opened at that depth.
	at, rep, rml := int32(need), refs[n-1], int32(need-1)
	leaf := func() {
		at--
		nodes[at] = Node{Depth: b.suffixLen(rep), RML: at, SID: rep.SID, Pos: rep.Pos}
	}
	leaf()
	stack := b.stack[:0]
	closeTop := func() {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v.rep = least(v.rep, rep)
		at--
		nodes[at] = Node{Depth: v.depth, RML: v.rml, SID: v.rep.SID, Pos: v.rep.Pos}
		rep, rml = v.rep, v.rml
	}
	for i := n - 1; i > 0; i-- {
		d := int32(lcp[i])
		if d == maxLCP {
			x, y := refs[i-1], refs[i]
			d += int32(commonPrefix(b.set.Suffix(x.SID, x.Pos+maxLCP), b.set.Suffix(y.SID, y.Pos+maxLCP)))
		}
		for len(stack) > 0 && stack[len(stack)-1].depth > d {
			closeTop()
		}
		if top := len(stack) - 1; top >= 0 && stack[top].depth == d {
			stack[top].rep = least(stack[top].rep, rep)
		} else {
			stack = append(stack, open{depth: d, rml: rml, rep: rep})
		}
		rep, rml = refs[i-1], at-1
		leaf()
	}
	for len(stack) > 0 {
		closeTop()
	}
	b.stack = stack
	for j := range nodes[at:] {
		nodes[j] = nodes[int(at)+j]
		nodes[j].RML -= at
	}
	b.slab = b.slab[:b.base+need-int(at)]
	b.pending -= n
	return b.slab[b.base:len(b.slab):len(b.slab)]
}

// least returns the smaller of two suffixes in (SID, Pos) order.
func least(a, b SuffixRef) SuffixRef {
	if b.SID < a.SID || b.SID == a.SID && b.Pos < a.Pos {
		return b
	}
	return a
}
