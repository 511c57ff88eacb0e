package pairgen

import (
	"math/rand"
	"testing"

	"pace/internal/seq"
	"pace/internal/simulate"
	"pace/internal/suffix"
)

// benchWorkload builds a deterministic random EST set and its forest once;
// the benchmarks re-create only the generator, whose Next loop is the hot
// path under measurement.
func benchWorkload(b *testing.B) (*seq.SetS, []*suffix.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ests := randomESTs(rng, 300, 150, 300)
	set, err := seq.NewSetS(ests)
	if err != nil {
		b.Fatal(err)
	}
	return set, buildForest(b, set, 8)
}

// simulated generates a simulate data set and builds its set and forest.
func simulated(t testing.TB, cfg simulate.Config, w int) (*seq.SetS, []*suffix.Tree) {
	t.Helper()
	bm, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := seq.NewSetS(bm.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	return set, buildForest(t, set, w)
}

// deepCoverage is seq_deep's shape: n reads at 20x coverage of n/20 genes.
func deepCoverage(t testing.TB, n int) (*seq.SetS, []*suffix.Tree) {
	t.Helper()
	cfg := simulate.DefaultConfig(n)
	cfg.Seed = 1
	return simulated(t, cfg, 8)
}

// drainAll builds a generator and pulls every pair in BatchSize-like chunks
// through Next; it returns the pairs emitted and the nodes scheduled.
func drainAll(b *testing.B, set *seq.SetS, forest []*suffix.Tree, psi int) (pairs, nodes int) {
	b.Helper()
	gen, err := New(set, forest, psi)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Pair, 0, 60)
	for {
		buf = gen.Next(buf[:0], 60)
		if len(buf) == 0 {
			return pairs, len(gen.order)
		}
		pairs += len(buf)
	}
}

// benchDrain reports a full New + drain per iteration.
func benchDrain(b *testing.B, set *seq.SetS, forest []*suffix.Tree, psi int) {
	b.ReportAllocs()
	b.ResetTimer()
	pairs, nodes := 0, 0
	for i := 0; i < b.N; i++ {
		pairs, nodes = drainAll(b, set, forest, psi)
	}
	b.ReportMetric(float64(pairs), "pairs")
	b.ReportMetric(float64(nodes), "nodes_scheduled/op")
}

// BenchmarkNext is a full New + drain on random ESTs at ψ = 12.
func BenchmarkNext(b *testing.B) {
	set, forest := benchWorkload(b)
	benchDrain(b, set, forest, 12)
}

// BenchmarkNewFreshDeep is generator construction alone on seq_deep's shape
// (400 reads, 20 genes, w = 8, ψ = 20): the mask pass and the scheduling.
func BenchmarkNewFreshDeep(b *testing.B) {
	set, forest := deepCoverage(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		g, err := NewFresh(set, forest, 20, 0)
		if err != nil {
			b.Fatal(err)
		}
		nodes = len(g.order)
	}
	b.ReportMetric(float64(nodes), "nodes_scheduled/op")
}

// BenchmarkNextDeep is construction plus a full drain on the same input.
func BenchmarkNextDeep(b *testing.B) {
	set, forest := deepCoverage(b, 400)
	benchDrain(b, set, forest, 20)
}

// BenchmarkNextPolyA watches the shape the leaf-range walk loses on: 1,000
// reads off transcripts with untrimmed 600-1,000-base poly(A) tails, so the
// deep nodes of the A-run hold long ranges in which most entries are dead.
func BenchmarkNextPolyA(b *testing.B) {
	cfg := simulate.DefaultConfig(1000)
	cfg.PolyATail = [2]int{600, 1000}
	cfg.Seed = 1
	set, forest := simulated(b, cfg, 8)
	benchDrain(b, set, forest, 20)
}
