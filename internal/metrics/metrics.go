// Package metrics implements the pair-based clustering quality measures from
// the paper's §4.1 (after Gelfand/Mironov/Pevzner): every unordered pair of
// ESTs is classified as TP/FP/TN/FN by comparing whether the pair is
// co-clustered in the prediction versus the ground truth, and the summary
// measures OQ (overlap quality), OV (over-prediction), UN (under-prediction)
// and CC (correlation coefficient) are derived from the counts.
package metrics

import (
	"fmt"
	"math"
)

// Counts are the raw pair-classification tallies.
type Counts struct {
	TP int64 // paired in both prediction and truth
	FP int64 // paired in prediction only
	TN int64 // paired in neither
	FN int64 // paired in truth only
}

// Quality is the paper's derived metric set, each in [0,1]
// (CC in [-1,1]). The paper reports them as percentages.
type Quality struct {
	Counts
	// OQ = TP / (TP + FP + FN): proportion of true pairs over all pairs
	// appearing in either clustering.
	OQ float64
	// OV = FP / (TP + FP): proportion of over-predicted pairs.
	OV float64
	// UN = FN / (TP + FN): proportion of unpredicted pairs.
	UN float64
	// CC is the Matthews correlation coefficient over the four counts.
	CC float64
}

// pairCount returns k*(k-1)/2.
func pairCount(k int64) int64 { return k * (k - 1) / 2 }

// sameLabelPairs returns, for a labeling, the number of co-labeled unordered
// pairs, computed from cluster sizes.
func sameLabelPairs(labels []int32) int64 {
	sizes := map[int32]int64{}
	for _, l := range labels {
		sizes[l]++
	}
	var total int64
	for _, s := range sizes {
		total += pairCount(s)
	}
	return total
}

// intersectionPairs counts unordered pairs co-clustered in both labelings:
// the sum of C(k,2) over the joint contingency cells. Runs in O(n log n).
func intersectionPairs(pred, truth []int32) int64 {
	type key struct{ p, t int32 }
	cells := map[key]int64{}
	for i := range pred {
		cells[key{pred[i], truth[i]}]++
	}
	var total int64
	for _, k := range cells {
		total += pairCount(k)
	}
	return total
}

// Compare classifies all C(n,2) pairs given predicted and true cluster
// labels. Labels are arbitrary identifiers; only co-membership matters.
func Compare(pred, truth []int32) (Quality, error) {
	if len(pred) != len(truth) {
		return Quality{}, fmt.Errorf("metrics: length mismatch %d vs %d", len(pred), len(truth))
	}
	n := int64(len(pred))
	all := pairCount(n)
	predPairs := sameLabelPairs(pred)
	truthPairs := sameLabelPairs(truth)
	tp := intersectionPairs(pred, truth)

	c := Counts{
		TP: tp,
		FP: predPairs - tp,
		FN: truthPairs - tp,
	}
	c.TN = all - c.TP - c.FP - c.FN
	return FromCounts(c), nil
}

// FromCounts derives the quality measures from raw counts. Ratios with zero
// denominators are reported as their ideal values (no evidence of error).
func FromCounts(c Counts) Quality {
	q := Quality{Counts: c}
	if d := c.TP + c.FP + c.FN; d > 0 {
		q.OQ = float64(c.TP) / float64(d)
	} else {
		q.OQ = 1
	}
	if d := c.TP + c.FP; d > 0 {
		q.OV = float64(c.FP) / float64(d)
	}
	if d := c.TP + c.FN; d > 0 {
		q.UN = float64(c.FN) / float64(d)
	}
	q.CC = matthews(c)
	return q
}

// matthews computes the correlation coefficient in floating point; the count
// products overflow int64 at realistic EST scales.
func matthews(c Counts) float64 {
	tp, fp, tn, fn := float64(c.TP), float64(c.FP), float64(c.TN), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tn + fn) * (tp + fn) * (tn + fp))
	if den == 0 {
		// Degenerate margins: a single-class situation. If there are no
		// errors at all, correlation is perfect by convention.
		if c.FP == 0 && c.FN == 0 {
			return 1
		}
		return 0
	}
	return (tp*tn - fp*fn) / den
}

// String renders the quality measures in the paper's percentage format.
func (q Quality) String() string {
	return fmt.Sprintf("OQ=%.2f%% OV=%.2f%% UN=%.2f%% CC=%.2f%%",
		100*q.OQ, 100*q.OV, 100*q.UN, 100*q.CC)
}

// NumClusters returns the number of distinct labels.
func NumClusters(labels []int32) int {
	set := map[int32]struct{}{}
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}
