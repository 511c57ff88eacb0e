package suffix

// TreeStats summarizes a forest's structure for diagnostics and capacity
// planning.
type TreeStats struct {
	Trees int
	// Nodes counts leaves plus internal nodes, the LCP intervals.
	Nodes         int64
	Leaves        int64
	InternalNodes int64
	MaxDepth      int32
}

// Stats aggregates structural statistics over a forest. It finds each
// tree's internal nodes in one pass with a stack of the open intervals'
// depths: an LCP deeper than the top opens an interval, and a shallower one
// closes every deeper interval first.
func Stats(forest []*Tree) TreeStats {
	var st TreeStats
	st.Trees = len(forest)
	var open []int32
	for _, t := range forest {
		refs := t.Refs()
		st.Leaves += int64(len(refs))
		for _, r := range refs {
			st.MaxDepth = max(st.MaxDepth, int32(len(t.set.Str(r.SID)))-r.Pos)
		}
		open = open[:0]
		for i := 1; i < len(refs); i++ {
			h := t.LCPAt(i)
			for len(open) > 0 && open[len(open)-1] > h {
				open = open[:len(open)-1]
			}
			if len(open) == 0 || open[len(open)-1] < h {
				open = append(open, h)
				st.InternalNodes++
			}
		}
	}
	st.Nodes = st.Leaves + st.InternalNodes
	return st
}
