package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestAdjustedRandIdentical(t *testing.T) {
	q, _ := Compare([]int32{0, 0, 1, 1, 2}, []int32{5, 5, 7, 7, 9})
	if math.Abs(q.AdjustedRand()-1) > 1e-12 {
		t.Errorf("identical partitions ARI: %f", q.AdjustedRand())
	}
}

func TestAdjustedRandSingletonsVsSingletons(t *testing.T) {
	pred := []int32{0, 1, 2, 3}
	q, _ := Compare(pred, pred)
	if q.AdjustedRand() != 1 {
		t.Errorf("all-singleton self-comparison ARI: %f", q.AdjustedRand())
	}
}

func TestAdjustedRandIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2000
	pred := make([]int32, n)
	truth := make([]int32, n)
	for i := range pred {
		pred[i] = int32(rng.Intn(10))
		truth[i] = int32(rng.Intn(10))
	}
	q, _ := Compare(pred, truth)
	if ari := q.AdjustedRand(); math.Abs(ari) > 0.02 {
		t.Errorf("independent partitions ARI should be ≈0, got %f", ari)
	}
}

func TestAdjustedRandBelowRand(t *testing.T) {
	// ARI penalizes chance agreement: for a partly-wrong clustering it
	// must sit below the raw Rand index.
	pred := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	truth := []int32{0, 0, 1, 1, 2, 2, 2, 0}
	q, _ := Compare(pred, truth)
	// The Rand index: the fraction of pair decisions the two agree on.
	ri := float64(q.TP+q.TN) / float64(q.TP+q.FP+q.TN+q.FN)
	if q.AdjustedRand() >= ri {
		t.Errorf("ARI %f >= RI %f", q.AdjustedRand(), ri)
	}
}
