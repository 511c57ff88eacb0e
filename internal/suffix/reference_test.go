package suffix

// The map-based collector and the append-per-class builder the flat table
// and the stable scatter replaced, kept verbatim (names prefixed ref) as the
// differential oracle: TestBuildMatchesReference and
// FuzzBuildMatchesReference require the production path to produce the same
// bucket ids and the same Nodes, element for element.

import (
	"errors"
	"fmt"
	"sort"

	"pace/internal/seq"
)

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
func refBuild(set *seq.SetS, bucket int, suffixes []SuffixRef, w int) (*Tree, error) {
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
	return &Tree{Bucket: bucket, Nodes: b.nodes}, nil
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
func refBuildForest(set *seq.SetS, byBucket map[int][]SuffixRef, w int) ([]*Tree, error) {
	ids := refSortedBucketIDs(byBucket)
	forest := make([]*Tree, 0, len(ids))
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
