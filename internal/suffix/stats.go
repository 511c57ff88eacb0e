package suffix

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
