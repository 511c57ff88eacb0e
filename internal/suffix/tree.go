package suffix

import (
	"fmt"
	"math/bits"

	"pace/internal/fanout"
	"pace/internal/seq"
)

// MaxLCP is where a table's LCP bytes saturate: a stored MaxLCP means "at
// least MaxLCP", and Tree.LCPAt finishes the count from there.
const MaxLCP = 255

// Tree is one bucket's subtree of the conceptual GST, read off the table:
// the bucket's suffixes in suffix order, which are the subtree's leaves in
// preorder, and each one's LCP byte. An internal node is an LCP interval —
// leaves [l, r] with every LCP in (l, r] at least its string-depth d and
// those at l and r+1 below it — and its children split where the LCP equals
// d. A tree reads its table until the next Absorb or Truncate.
type Tree struct {
	// Bucket is the bucket id this subtree was built from.
	Bucket int
	table  *Buckets
	set    *seq.SetS
}

// Refs returns the leaves in preorder, read-only.
func (t *Tree) Refs() []SuffixRef { return t.table.Refs(t.Bucket) }

// LCP returns the leaves' LCP bytes, read-only: LCP()[i] is min(MaxLCP, the
// longest common prefix of Refs()[i-1] and Refs()[i]), and LCP()[0] is 0.
func (t *Tree) LCP() []uint8 {
	lo, hi := t.table.off[t.Bucket], t.table.off[t.Bucket+1]
	return t.table.lcp[lo:hi:hi]
}

// LCPAt returns the exact longest common prefix of Refs()[i-1] and
// Refs()[i] (0 for i == 0).
func (t *Tree) LCPAt(i int) int32 {
	h := int32(t.LCP()[i])
	if h == MaxLCP {
		refs := t.Refs()
		x, y := refs[i-1], refs[i]
		h += int32(commonPrefix(t.set.Suffix(x.SID, x.Pos+MaxLCP), t.set.Suffix(y.SID, y.Pos+MaxLCP)))
	}
	return h
}

// BuildForest orders every non-empty bucket of the table, in ascending
// bucket order, on one goroutine. Only bench/shadow.go calls it outside
// tests, and ROADMAP item 22(b) deletes it with the shadow.
func BuildForest(set *seq.SetS, t *Buckets, w int) ([]*Tree, error) {
	if t.w != w {
		return nil, fmt.Errorf("suffix: table collected with window %d, build asked for %d", t.w, w)
	}
	return BuildBuckets(set, t, t.NonEmpty(), 1)
}

// BuildBuckets is the construction phase (§3.1): it puts the listed buckets
// of the table in suffix order, in place, and returns their trees in the
// order given, skipping the empty ones; a table a failed CollectOwned
// returned yields that collect's error. A bucket's suffixes behind its
// ordered front are sorted (builder.sort), which yields their LCPs, and
// merged with the front (mergeInto) or, with no front, copied in; a bucket
// that is ordered already costs nothing.
//
// The ids are cut into at most workers contiguous chunks of near-equal
// suffix count, each ordered by a builder of its own, the first on the
// calling goroutine and the others concurrently. Buckets are independent, so
// the result does not depend on the cut, and the error returned is the one a
// single pass over the ids meets first. The trees' headers are cut from one
// array, so a forest costs a few allocations per worker, not per tree.
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
		return t.order(set, ids[lo:hi], forest[lo:hi], headers[lo:hi])
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

// order orders the non-empty buckets among ids with one builder, putting
// bucket ids[i]'s tree in headers[i] and forest[i]. It stops at the first
// error: a suffix shorter than the window.
func (t *Buckets) order(set *seq.SetS, ids []int32, forest []*Tree, headers []Tree) error {
	largest := 0
	for _, id := range ids {
		largest = max(largest, len(t.Refs(int(id)))-int(t.ordered[id]))
	}
	b := newBuilder(set, t.w, largest)
	for i, id := range ids {
		lo, hi := t.off[id], t.off[id+1]
		refs, lcp := t.refs[lo:hi:hi], t.lcp[lo:hi:hi]
		if len(refs) == 0 {
			continue
		}
		if s := int(t.ordered[id]); s < len(refs) {
			order, orderLCP, err := b.sort(refs[s:], lcp[s:])
			if err != nil {
				return err
			}
			if s == 0 {
				copy(refs, order)
				copy(lcp, orderLCP)
			} else {
				// sort copies the new suffixes out, so the front moves
				// behind the room they leave and is merged back from there:
				// merge output never overtakes its unread input.
				f := len(order)
				copy(refs[f:], refs[:s])
				copy(lcp[f:], lcp[:s])
				b.mergeInto(refs, lcp, refs[f:], lcp[f:], order, orderLCP)
			}
			t.ordered[id] = int32(len(refs))
		}
		headers[i] = Tree{Bucket: int(id), table: t, set: set}
		forest[i] = &headers[i]
	}
	return nil
}

// builder sorts a bucket's suffixes by the paper's recursive bucketing. One
// builder serves a whole chunk of buckets, so its buffers are allocated once
// whatever the number of buckets.
type builder struct {
	set *seq.SetS
	w   int32
	// work holds the suffixes being sorted, in code order (codes), then
	// partitioned in place level by level; tmp is the source copy of the
	// group a scatter is moving, and cls the class (0 terminator, 1+c
	// character c) of each of its suffixes.
	work, tmp  []SuffixRef
	cls, codes []uint8
	// order gets each leaf in turn and lcps its LCP with the leaf before;
	// seam is the depth of the node whose next child the next leaf starts.
	order []SuffixRef
	lcps  []uint8
	seam  int32
	// code and past are the leaf emitted last's code and characters past
	// the window, at most four.
	code, past uint8
}

// newBuilder returns a builder for buckets of at most largest suffixes. Its
// buffers are cut from two arrays.
func newBuilder(set *seq.SetS, w, largest int) *builder {
	refs, bytes := make([]SuffixRef, 3*largest), make([]uint8, 3*largest)
	return &builder{
		set: set, w: int32(w),
		work:  refs[:largest:largest],
		tmp:   refs[largest : 2*largest : 2*largest],
		order: refs[2*largest : 2*largest],
		cls:   bytes[:largest:largest],
		codes: bytes[largest : 2*largest : 2*largest],
		lcps:  bytes[2*largest : 2*largest],
	}
}

// suffixLen returns the length of the suffix ref.
func (b *builder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

// sort orders suffixes, which share their first w characters, come in
// (SID, Pos) order and carry their look-ahead codes in codes, as their
// subtree's preorder leaves, and returns them with each one's saturated LCP
// with the one before it, both valid until the next call. A suffix shorter
// than the window is an error.
//
// Past two suffixes, two stable 16-way passes order them by code, equal
// codes in (SID, Pos) order; codes that differ give the LCP (follow), and
// strings are read only in a run of equal code, by shortFirst and by build
// from depth w+4. It costs O(sum of suffix lengths) for the bucket, i.e.
// O(N·l/p) per worker, as the average EST length l is independent of n.
func (b *builder) sort(suffixes []SuffixRef, codes []uint8) ([]SuffixRef, []uint8, error) {
	n := len(suffixes)
	tmp, cls, work, key := b.tmp[:n], b.cls[:n], b.work[:n], b.codes[:n]
	var low, high [16]int32
	for i, r := range suffixes {
		if b.suffixLen(r) < b.w {
			return nil, nil, fmt.Errorf("suffix: suffix (%d,%d) shorter than window %d", r.SID, r.Pos, b.w)
		}
		low[codes[i]&15]++
		high[codes[i]>>4]++
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

// scatterBy moves src and its codes into dst and dstCodes, stably ordered by
// the half-byte of each code at shift; at holds the count of each half-byte
// value and is spent.
func scatterBy(src []SuffixRef, codes []uint8, dst []SuffixRef, dstCodes []uint8, at *[16]int32, shift uint) {
	for k, sum := 0, int32(0); k < len(at); k++ {
		at[k], sum = sum, sum+at[k]
	}
	for i, r := range src {
		k := &at[codes[i]>>shift&15]
		dst[*k], dstCodes[*k] = r, codes[i]
		*k++
	}
}

// shortFirst reads the lengths of a run of code c, which ends in A and so
// may hide suffixes with fewer than four characters past the window. It
// emits those, shortest first and equal ones in run order, each a prefix of
// all after it, and returns the rest, compacted in order to run's front.
func (b *builder) shortFirst(run []SuffixRef, c uint8) []SuffixRef {
	past := b.cls[:len(run)]
	for i, r := range run {
		past[i] = uint8(min(4, b.suffixLen(r)-b.w))
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
func (b *builder) follow(c, n uint8) {
	b.seam = b.w + int32(min(bits.LeadingZeros8(b.code^c)/2, int(b.past), int(n)))
	b.code, b.past = c, n
}

// emitLeaf appends suffix r as the next leaf.
func (b *builder) emitLeaf(r SuffixRef) {
	b.order = append(b.order, r)
	b.lcps = append(b.lcps, uint8(min(b.seam, MaxLCP)))
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
// group ordered terminators, A, C, G, T with the (SID, Pos) order kept inside
// each class, which is what makes equal suffixes leaves in (SID, Pos) order.
func (b *builder) build(group []SuffixRef, depth int32) {
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

// pair emits the leaves of two suffixes sharing their first depth
// characters, which meet at their common prefix: the first to end or the
// smaller next character first. Identical suffixes both end there and keep
// their order.
func (b *builder) pair(r, q SuffixRef, depth int32) {
	rs, qs := b.set.Suffix(r.SID, r.Pos), b.set.Suffix(q.SID, q.Pos)
	d := depth + int32(commonPrefix(rs[depth:], qs[depth:]))
	if int(d) < len(rs) && (int(d) == len(qs) || qs[d] < rs[d]) {
		r, q = q, r
	}
	b.emitLeaf(r)
	b.seam = d
	b.emitLeaf(q)
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

// mergeInto writes the LCP merge of old and fresh, each in suffix order with
// its LCPs, into refs and lcp: ho and hf are the saturated LCPs of the next
// old and next fresh suffix with the one written last, which sorts before
// both. Whichever shares more with it sorts first, and the other's LCP with
// it stays, so characters are read only on a tie, from the shared depth on.
// Of two equal suffixes the old one, from an older string, goes first. old
// may be the tail of refs and lcp: the suffix written at out = i+j comes
// from old[i] or from fresh, whose length is the gap, so no write reaches an
// old suffix before it is read.
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
					hf = uint8(min(c, MaxLCP))
				} else {
					ho = uint8(min(c, MaxLCP))
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
