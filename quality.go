package pace

import (
	"pace/internal/metrics"
)

// Quality is the paper's §4.1 pair-based clustering assessment (Table 2):
// every unordered EST pair is classified as true/false positive/negative by
// comparing co-membership in the predicted versus the reference clustering.
// OQ, OV, UN and CC are the derived measures, TP, FP, TN and FN the counts,
// and String renders the measures in the paper's percentage format.
type Quality = metrics.Quality

// Evaluate compares a predicted clustering against a reference. Labels are
// arbitrary identifiers; only co-membership matters.
func Evaluate(pred, truth []int) (Quality, error) {
	p := make([]int32, len(pred))
	for i, v := range pred {
		p[i] = int32(v)
	}
	t := make([]int32, len(truth))
	for i, v := range truth {
		t[i] = int32(v)
	}
	return metrics.Compare(p, t)
}
