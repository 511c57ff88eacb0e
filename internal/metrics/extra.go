package metrics

// AdjustedRand computes the Hubert–Arabie adjusted Rand index directly from
// the pair counts: agreement corrected for chance, 1 for identical
// partitions, ~0 for independent ones.
func (q Quality) AdjustedRand() float64 {
	// In pair terms: sumPred = TP+FP, sumTruth = TP+FN, n2 = all pairs.
	a := float64(q.TP)
	sumPred := float64(q.TP + q.FP)
	sumTruth := float64(q.TP + q.FN)
	n2 := float64(q.TP + q.FP + q.TN + q.FN)
	if n2 == 0 {
		return 1
	}
	expected := sumPred * sumTruth / n2
	maxIdx := (sumPred + sumTruth) / 2
	if maxIdx == expected {
		// Degenerate margins (e.g. all singletons on both sides).
		if a == expected {
			return 1
		}
		return 0
	}
	return (a - expected) / (maxIdx - expected)
}
