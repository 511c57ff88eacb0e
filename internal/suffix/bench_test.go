package suffix

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pace/internal/seq"
	"pace/internal/simulate"
)

// benchInput is the microbenchmarks' input: n random ESTs of 400–700 bases
// and the one-worker assignment of their buckets.
func benchInput(b *testing.B, n, w int) (*seq.SetS, []int32) {
	b.Helper()
	set := randomSet(b, rand.New(rand.NewSource(1)), n, 400, 700)
	return set, Assign(Histogram(set, w, 0, seq.StringID(set.NumStrings())), 1)
}

// BenchmarkCollectOwned times the partition alone: two scans of 200 ESTs into
// the flat table.
func BenchmarkCollectOwned(b *testing.B) {
	const w = 8
	set, owner := benchInput(b, 200, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := CollectOwned(set, w, owner, 0, 0, seq.StringID(set.NumStrings())); t.err != nil {
			b.Fatal(t.err)
		}
	}
}

// BenchmarkBuildForest times the ordering alone, over a table collected once:
// 200 ESTs in 65 536 buckets of three or four suffixes.
func BenchmarkBuildForest(b *testing.B) {
	const w = 8
	set, owner := benchInput(b, 200, w)
	table := CollectOwned(set, w, owner, 0, 0, seq.StringID(set.NumStrings()))
	benchBuild(b, set, table, func(t *Buckets) error {
		_, err := BuildForest(set, t, w)
		return err
	})
}

// BenchmarkBuildForestSparse is the seq_sparse shape at a fraction of its
// size: unrelated ESTs in buckets of about 70 suffixes (there 5000 ESTs in
// 4^8 buckets, here 300 in 4^6).
func BenchmarkBuildForestSparse(b *testing.B) {
	const w = 6
	set, owner := benchInput(b, 300, w)
	table := CollectOwned(set, w, owner, 0, 0, seq.StringID(set.NumStrings()))
	benchBuild(b, set, table, func(t *Buckets) error {
		_, err := BuildForest(set, t, w)
		return err
	})
}

// BenchmarkBuildForestDeep is the seq_deep shape at a fifth of its size: 400
// ESTs from 20 genes, so reads of one gene share runs of hundreds of bases
// and most of the build is key sorts of groups that recurse a key width at a
// time, which random reads rarely reach.
func BenchmarkBuildForestDeep(b *testing.B) {
	const w = 8
	cfg := simulate.DefaultConfig(400)
	cfg.NumGenes, cfg.Seed = 20, 1
	sim, err := simulate.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	set, err := seq.NewSetS(sim.ESTs)
	if err != nil {
		b.Fatal(err)
	}
	n2 := seq.StringID(set.NumStrings())
	table := CollectOwned(set, w, Assign(Histogram(set, w, 0, n2), 1), 0, 0, n2)
	benchBuild(b, set, table, func(t *Buckets) error {
		_, err := BuildForest(set, t, w)
		return err
	})
}

// BenchmarkBuildForestFanOut is BenchmarkBuildForestSparse built the way the
// sequential engine builds it, over GOMAXPROCS workers: run it at -cpu 1,2 to
// record both widths.
func BenchmarkBuildForestFanOut(b *testing.B) {
	const w = 6
	set, owner := benchInput(b, 300, w)
	table := CollectOwned(set, w, owner, 0, 0, seq.StringID(set.NumStrings()))
	ids := table.NonEmpty()
	benchBuild(b, set, table, func(t *Buckets) error {
		_, err := BuildBuckets(set, t, ids, runtime.GOMAXPROCS(0))
		return err
	})
}

// benchBuild times order on a copy of the collected table per iteration:
// ordering is in place, and an ordered bucket costs nothing. The copy is
// off the clock.
func benchBuild(b *testing.B, set *seq.SetS, table *Buckets, order func(*Buckets) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := *table
		t.refs, t.lcp, t.ordered = slices.Clone(table.refs), slices.Clone(table.lcp), slices.Clone(table.ordered)
		b.StartTimer()
		if err := order(&t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAbsorb is ingest_paced's batching over random reads: twelve
// batches of 20 ESTs absorbed into one growing table, the touched buckets
// ordered after each. ingest_paced's reads cover their genes 20 times
// over; these share nothing, so it times the cache, not the deep key sorts
// (BenchmarkCacheAbsorbDeep does).
func BenchmarkCacheAbsorb(b *testing.B) {
	const w, batches = 8, 12
	set, _ := benchInput(b, 20*batches, w)
	benchAbsorb(b, set, w, batches)
}

// BenchmarkCacheAbsorbDeep is BenchmarkCacheAbsorb over ingest_paced's kind of
// reads: 240 ESTs from 12 genes, seq_deep's 20 reads per gene, so each batch's suffixes
// land among old ones sharing long runs with them.
func BenchmarkCacheAbsorbDeep(b *testing.B) {
	const w, batches = 8, 12
	cfg := simulate.DefaultConfig(20 * batches)
	cfg.NumGenes, cfg.Seed = 12, 1
	sim, err := simulate.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	set, err := seq.NewSetS(sim.ESTs)
	if err != nil {
		b.Fatal(err)
	}
	benchAbsorb(b, set, w, batches)
}

// benchAbsorb absorbs set's strings into a table in equal batches on one
// worker and orders the touched buckets after each.
func benchAbsorb(b *testing.B, set *seq.SetS, w, batches int) {
	per := set.NumStrings() / batches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := NewBuckets(w)
		for k := 0; k < batches; k++ {
			touched, err := table.Absorb(set, seq.StringID(per*k), seq.StringID(per*(k+1)), 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := BuildBuckets(set, table, touched, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
