package suffix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pace/internal/seq"
)

// Serialization of bucket subtrees. The format is a fixed little-endian
// layout (magic, version, bucket id, node count, then 16 bytes per node),
// letting a long-lived service checkpoint its constructed forest and reload
// it instead of rebuilding — GST construction is the second-largest
// component in the paper's Table 3.

const (
	magic   = 0x47535431 // "GST1"
	version = 1
	// readChunk is how many nodes (or trees) a reader allocates before any
	// has arrived, whatever the header claims.
	readChunk = 1 << 16
)

// WriteTree serializes one tree.
func WriteTree(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.Bucket))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(t.Nodes)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [16]byte
	for _, n := range t.Nodes {
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.Depth))
		binary.LittleEndian.PutUint32(rec[4:], uint32(n.RML))
		binary.LittleEndian.PutUint32(rec[8:], uint32(n.SID))
		binary.LittleEndian.PutUint32(rec[12:], uint32(n.Pos))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTree deserializes one tree. It reads exactly the tree's bytes, so
// multiple trees can be streamed back to back; wrap r in a bufio.Reader for
// throughput (ReadForest does).
func ReadTree(r io.Reader) (*Tree, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("suffix: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("suffix: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("suffix: unsupported version %d", v)
	}
	// RML is an int32, so no valid tree has more nodes than that; and the
	// count is only a claim until the records arrive, so the node slice
	// grows with what has been read instead of being sized from the header.
	count := binary.LittleEndian.Uint64(hdr[12:])
	if count == 0 || count > math.MaxInt32 {
		return nil, fmt.Errorf("suffix: implausible node count %d", count)
	}
	t := &Tree{
		Bucket: int(binary.LittleEndian.Uint32(hdr[8:])),
		Nodes:  make([]Node, 0, min(count, readChunk)),
	}
	var rec [16]byte
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("suffix: reading node %d: %w", i, err)
		}
		n := Node{
			Depth: int32(binary.LittleEndian.Uint32(rec[0:])),
			RML:   int32(binary.LittleEndian.Uint32(rec[4:])),
			SID:   seq.StringID(binary.LittleEndian.Uint32(rec[8:])),
			Pos:   int32(binary.LittleEndian.Uint32(rec[12:])),
		}
		if n.RML < int32(i) || n.RML >= int32(count) {
			return nil, fmt.Errorf("suffix: node %d has invalid RML %d", i, n.RML)
		}
		if i == cap(t.Nodes) {
			// Double, but never past the claim: the last step lands on it.
			grown := make([]Node, i, min(int(count), 2*i))
			copy(grown, t.Nodes)
			t.Nodes = grown
		}
		t.Nodes = append(t.Nodes, n)
	}
	t.leaves = t.countLeaves() // cache once so NumLeaves stays O(1)
	return t, nil
}

// WriteForest serializes a forest: a count followed by each tree.
func WriteForest(w io.Writer, forest []*Tree) error {
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(forest)))
	if _, err := w.Write(cnt[:]); err != nil {
		return err
	}
	for _, t := range forest {
		if err := WriteTree(w, t); err != nil {
			return err
		}
	}
	return nil
}

// ReadForest deserializes a forest written by WriteForest.
func ReadForest(rd io.Reader) ([]*Tree, error) {
	r := bufio.NewReader(rd)
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("suffix: reading forest count: %w", err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > 1<<32 {
		return nil, fmt.Errorf("suffix: implausible forest size %d", n)
	}
	forest := make([]*Tree, 0, min(n, readChunk))
	for i := uint64(0); i < n; i++ {
		t, err := ReadTree(r)
		if err != nil {
			return nil, fmt.Errorf("suffix: tree %d: %w", i, err)
		}
		forest = append(forest, t)
	}
	return forest, nil
}

// TreeStats summarizes a forest's structure for diagnostics and capacity
// planning (node counts drive the engine's 16-byte-per-node memory bound).
type TreeStats struct {
	Trees         int
	Nodes         int64
	Leaves        int64
	InternalNodes int64
	MaxDepth      int32
	// Bytes is the DFS-array storage: 16 bytes per node.
	Bytes int64
}

// Stats aggregates structural statistics over a forest.
func Stats(forest []*Tree) TreeStats {
	var st TreeStats
	st.Trees = len(forest)
	for _, t := range forest {
		st.Nodes += int64(len(t.Nodes))
		for i, n := range t.Nodes {
			if t.IsLeaf(int32(i)) {
				st.Leaves++
			} else {
				st.InternalNodes++
			}
			if n.Depth > st.MaxDepth {
				st.MaxDepth = n.Depth
			}
		}
	}
	st.Bytes = 16 * st.Nodes
	return st
}
