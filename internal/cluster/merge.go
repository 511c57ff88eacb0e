package cluster

import (
	"fmt"

	"pace/internal/unionfind"
)

// Merge protocols: how accepted pairs become cluster merges.
//
// The master (and the sequential engine) owns one union-find, the paper's
// §3.3 CLUSTERS structure. Config.MergeShards selects what reaches it:
//
//   - Per-pair verdicts (MergeShards == 0, the default): slaves report a
//     verdict for every processed pair and the master unions each accepted
//     pair — the paper's protocol, bit-exact.
//   - Merge deltas (MergeShards == 1): each slave filters its accepted pairs
//     through a local union-find (deltaLog) and reports only the spanning
//     edges plus batch counters; the master unions the edges. The sequential
//     engine applies each batch's accepted pairs at the batch boundary, the
//     same deferred-merge semantics.

// applyDelta unions a delta's edges into uf and returns the number that
// joined two clusters.
func applyDelta(uf *unionfind.UF, edges []unionfind.MergeEdge) int64 {
	var links int64
	for _, e := range edges {
		if uf.Union(e.A, e.B) {
			links++
		}
	}
	return links
}

// deltaLog is the slave-side half of the delta protocol: a local union-find
// that filters the slave's accepted pairs down to spanning edges. Edges
// accumulate in pending until a report ships them; a slave that dies loses
// its local structure and its unshipped edges together, so recovery's
// regenerate-and-refilter path re-derives exactly the lost connectivity.
type deltaLog struct {
	local   *unionfind.UF
	pending []unionfind.MergeEdge
}

func newDeltaLog(n int) *deltaLog {
	return &deltaLog{local: unionfind.New(n)}
}

// absorb filters one batch of verdicts into the pending edge log and returns
// the batch's accepted count.
func (d *deltaLog) absorb(results []alignResult) int64 {
	var accepted int64
	for _, r := range results {
		if !r.accepted {
			continue
		}
		accepted++
		i, j := int32(r.estI), int32(r.estJ)
		if d.local.Union(i, j) {
			d.pending = append(d.pending, unionfind.MergeEdge{A: i, B: j})
		}
	}
	return accepted
}

// take hands over the pending edges and resets the log's buffer.
func (d *deltaLog) take() []unionfind.MergeEdge {
	out := d.pending
	d.pending = nil
	return out
}

// seedClusters merges ESTs that share a non-negative initial label. Labels
// may cover only a prefix of the ESTs (old batch before newly arrived ones).
// It returns the number of union operations performed, so a resumed run can
// report how much work the seed (e.g. a checkpoint) already covered.
func seedClusters(uf *unionfind.UF, labels []int32, n int) (int64, error) {
	if len(labels) > n {
		return 0, fmt.Errorf("cluster: %d initial labels for %d ESTs", len(labels), n)
	}
	first := make(map[int32]int32)
	var merges int64
	for i, l := range labels {
		if l < 0 {
			continue
		}
		if f, ok := first[l]; ok {
			if uf.Union(f, int32(i)) {
				merges++
			}
		} else {
			first[l] = int32(i)
		}
	}
	return merges, nil
}
