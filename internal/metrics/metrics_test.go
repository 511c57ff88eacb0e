package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompareLengthMismatch(t *testing.T) {
	if _, err := Compare([]int32{0}, []int32{0, 1}); err == nil {
		t.Error("want error")
	}
}

func TestComparePerfect(t *testing.T) {
	truth := []int32{0, 0, 1, 1, 2}
	q, err := Compare(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ != 1 || q.OV != 0 || q.UN != 0 || q.CC != 1 {
		t.Errorf("perfect clustering: %+v", q)
	}
	if q.TP != 2 || q.FP != 0 || q.FN != 0 || q.TN != 8 {
		t.Errorf("counts: %+v", q.Counts)
	}
}

func TestCompareRelabeledPerfect(t *testing.T) {
	// Different label values, same partition.
	pred := []int32{7, 7, 3, 3, 9}
	truth := []int32{0, 0, 1, 1, 2}
	q, err := Compare(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ != 1 || q.CC != 1 {
		t.Errorf("relabeled perfect: %+v", q)
	}
}

func TestCompareAllSingletonsVsOneCluster(t *testing.T) {
	n := 5
	pred := make([]int32, n)
	truth := make([]int32, n)
	for i := range pred {
		pred[i] = int32(i) // all singletons
	}
	q, err := Compare(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.TP != 0 || q.FP != 0 || q.FN != 10 || q.TN != 0 {
		t.Errorf("counts: %+v", q.Counts)
	}
	if q.UN != 1 || q.OQ != 0 {
		t.Errorf("quality: %+v", q)
	}
}

func TestCompareKnownMixed(t *testing.T) {
	// truth: {0,1},{2,3}; pred: {0,1,2},{3}
	truth := []int32{0, 0, 1, 1}
	pred := []int32{5, 5, 5, 6}
	q, err := Compare(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	// pred pairs: (0,1),(0,2),(1,2) ; truth pairs: (0,1),(2,3)
	// TP = {(0,1)} = 1; FP = 2; FN = 1; TN = C(4,2)-4 = 2.
	if q.TP != 1 || q.FP != 2 || q.FN != 1 || q.TN != 2 {
		t.Errorf("counts: %+v", q.Counts)
	}
	if math.Abs(q.OQ-0.25) > 1e-12 {
		t.Errorf("OQ %f", q.OQ)
	}
	if math.Abs(q.OV-2.0/3.0) > 1e-12 {
		t.Errorf("OV %f", q.OV)
	}
	if math.Abs(q.UN-0.5) > 1e-12 {
		t.Errorf("UN %f", q.UN)
	}
	wantCC := (1.0*2 - 2.0*1) / math.Sqrt(3*3*2*4)
	if math.Abs(q.CC-wantCC) > 1e-12 {
		t.Errorf("CC %f want %f", q.CC, wantCC)
	}
}

// Property: counts always partition C(n,2), and all measures stay in range.
func TestCompareInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw)
		pred := make([]int32, n)
		truth := make([]int32, n)
		for i, b := range raw {
			pred[i] = int32(b % 7)
			truth[i] = int32((b / 7) % 5)
		}
		q, err := Compare(pred, truth)
		if err != nil {
			return false
		}
		total := int64(n) * int64(n-1) / 2
		if q.TP+q.FP+q.TN+q.FN != total {
			return false
		}
		if q.TP < 0 || q.FP < 0 || q.TN < 0 || q.FN < 0 {
			return false
		}
		return q.OQ >= 0 && q.OQ <= 1 && q.OV >= 0 && q.OV <= 1 &&
			q.UN >= 0 && q.UN <= 1 && q.CC >= -1 && q.CC <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Brute-force oracle comparison on random labelings.
func TestCompareAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		pred := make([]int32, n)
		truth := make([]int32, n)
		for i := range pred {
			pred[i] = int32(rng.Intn(6))
			truth[i] = int32(rng.Intn(6))
		}
		var want Counts
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := pred[i] == pred[j]
				tt := truth[i] == truth[j]
				switch {
				case p && tt:
					want.TP++
				case p && !tt:
					want.FP++
				case !p && tt:
					want.FN++
				default:
					want.TN++
				}
			}
		}
		q, err := Compare(pred, truth)
		if err != nil {
			t.Fatal(err)
		}
		if q.Counts != want {
			t.Fatalf("trial %d: %+v want %+v", trial, q.Counts, want)
		}
	}
}

func TestFromCountsZeroDenominators(t *testing.T) {
	q := FromCounts(Counts{TN: 10})
	if q.OQ != 1 || q.OV != 0 || q.UN != 0 || q.CC != 1 {
		t.Errorf("all-negative perfection: %+v", q)
	}
	q = FromCounts(Counts{FP: 5})
	if q.CC != 0 {
		t.Errorf("degenerate-margin CC should be 0: %+v", q)
	}
}

func TestMatthewsLargeCountsNoOverflow(t *testing.T) {
	// Counts at real EST scale (n≈100k ⇒ TN≈5e9) must not overflow.
	c := Counts{TP: 2_000_000, FP: 10_000, FN: 150_000, TN: 4_999_000_000}
	q := FromCounts(c)
	if math.IsNaN(q.CC) || math.IsInf(q.CC, 0) || q.CC <= 0.5 {
		t.Errorf("CC at scale: %f", q.CC)
	}
}

func TestNumClusters(t *testing.T) {
	if NumClusters([]int32{3, 3, 1, 0, 1}) != 3 {
		t.Error("NumClusters wrong")
	}
	if NumClusters(nil) != 0 {
		t.Error("empty labels")
	}
}

func TestString(t *testing.T) {
	q := FromCounts(Counts{TP: 1, FP: 1, FN: 0, TN: 0})
	s := q.String()
	if s == "" || s[:2] != "OQ" {
		t.Errorf("format: %q", s)
	}
}

func BenchmarkCompare100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	pred := make([]int32, n)
	truth := make([]int32, n)
	for i := range pred {
		pred[i] = int32(rng.Intn(5000))
		truth[i] = int32(rng.Intn(5000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(pred, truth); err != nil {
			b.Fatal(err)
		}
	}
}
