package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pace/internal/metrics"
	"pace/internal/mp"
	"pace/internal/simulate"
)

// benchSet generates a small benchmark with ground truth.
func benchSet(t testing.TB, n, genes int, seed int64) *simulate.Benchmark {
	t.Helper()
	b, err := simulate.Generate(benchConfig(n, genes, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchConfig is benchSet's generator configuration.
func benchConfig(n, genes int, seed int64) simulate.Config {
	cfg := simulate.DefaultConfig(n)
	cfg.NumGenes = genes
	cfg.Seed = seed
	// Keep transcripts short relative to reads so same-gene reads overlap
	// strongly: single-linkage clustering can then recover whole genes and
	// quality assertions are meaningful.
	cfg.MeanESTLen = 400
	cfg.SDESTLen = 40
	cfg.MinESTLen = 200
	cfg.ExonLen = [2]int{150, 180}
	cfg.ExonsPerGene = [2]int{3, 3}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.Window = 13 },
		func(c *Config) { c.Psi = c.Window - 1 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.WorkBufCap = c.BatchSize - 1 },
		func(c *Config) { c.Band = 0 },
		func(c *Config) { c.Scoring.Match = 0 },
		func(c *Config) { c.MP.Procs = 0 },
		func(c *Config) { c.MP.Procs = c.WorkBufCap + 1 },
	}
	for i, mod := range bad {
		c := DefaultConfig(4)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSequentialClustersBenchmark(t *testing.T) {
	b := benchSet(t, 120, 8, 1)
	cfg := DefaultConfig(1)
	cfg.Window = 6
	cfg.Psi = 18
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 120 {
		t.Fatalf("labels length %d", len(res.Labels))
	}
	q, err := metrics.Compare(res.Labels, b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ < 0.80 {
		t.Errorf("sequential clustering quality too low: %v (clusters=%d want≈%d)",
			q, res.NumClusters, 8)
	}
	st := res.Stats
	if st.PairsGenerated == 0 || st.PairsProcessed == 0 || st.PairsAccepted == 0 {
		t.Errorf("counters empty: %+v", st)
	}
	if st.PairsProcessed > st.PairsGenerated {
		t.Errorf("processed %d > generated %d", st.PairsProcessed, st.PairsGenerated)
	}
	if st.PairsAccepted > st.PairsProcessed {
		t.Errorf("accepted %d > processed %d", st.PairsAccepted, st.PairsProcessed)
	}
}

func TestSkipSameClusterReducesWork(t *testing.T) {
	b := benchSet(t, 100, 4, 2)
	on := DefaultConfig(1)
	on.Window, on.Psi = 6, 18
	off := on
	off.SkipSameCluster = false

	resOn, err := Run(b.ESTs, on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run(b.ESTs, off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Stats.PairsProcessed >= resOff.Stats.PairsProcessed {
		t.Errorf("skip heuristic did not reduce alignments: %d vs %d",
			resOn.Stats.PairsProcessed, resOff.Stats.PairsProcessed)
	}
	// Quality must not suffer: both should find essentially the same
	// partition.
	qOn, _ := metrics.Compare(resOn.Labels, b.Truth)
	qOff, _ := metrics.Compare(resOff.Labels, b.Truth)
	if qOn.OQ < qOff.OQ-0.02 {
		t.Errorf("skipping hurt quality: %v vs %v", qOn, qOff)
	}
}

func parallelModes(p int) []mp.Config {
	sim := mp.DefaultSimConfig(p)
	return []mp.Config{
		{Procs: p, Mode: mp.ModeReal},
		sim,
	}
}

func TestParallelMatchesSequentialPartition(t *testing.T) {
	b := benchSet(t, 90, 6, 3)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18
	seqRes, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	qSeq, _ := metrics.Compare(seqRes.Labels, b.Truth)

	for _, p := range []int{2, 3, 5} {
		for _, mpCfg := range parallelModes(p) {
			mode := "real"
			if mpCfg.Mode == mp.ModeSim {
				mode = "sim"
			}
			t.Run(fmt.Sprintf("p%d_%s", p, mode), func(t *testing.T) {
				cfg := base
				cfg.MP = mpCfg
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Labels) != len(b.ESTs) {
					t.Fatalf("labels length %d", len(res.Labels))
				}
				q, _ := metrics.Compare(res.Labels, b.Truth)
				// Master-slave scheduling changes alignment order, so
				// partitions can differ slightly; quality must hold.
				if q.OQ < qSeq.OQ-0.05 {
					t.Errorf("parallel quality dropped: %v vs sequential %v", q, qSeq)
				}
				st := res.Stats
				if st.PairsGenerated == 0 || st.PairsProcessed == 0 {
					t.Errorf("counters empty: %+v", st)
				}
				if st.Phases.Total == 0 {
					t.Error("no total time recorded")
				}
			})
		}
	}
}

// TestParallelPairAccounting holds the parallel engine to the sequential
// engine's identity: on a failure-free run every generated pair is either
// aligned once or skipped once — by a slave's replica inside a batch or
// before it enters PAIRBUF, or by the master at admission or dispatch — so
// the slaves' skips, reported in their phase words, close the sum.
func TestParallelPairAccounting(t *testing.T) {
	b := benchSet(t, 150, 8, 5)
	for _, p := range []int{3, 5} {
		for _, mpCfg := range parallelModes(p) {
			t.Run(fmt.Sprintf("p%d_%s", p, modeName(mpCfg)), func(t *testing.T) {
				cfg := DefaultConfig(p)
				cfg.Window, cfg.Psi = 6, 18
				cfg.MP = mpCfg
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.PairsProcessed+st.PairsSkipped != st.PairsGenerated || st.PairsAccepted > st.PairsProcessed {
					t.Errorf("processed %d + skipped %d != generated %d, or accepted %d > processed",
						st.PairsProcessed, st.PairsSkipped, st.PairsGenerated, st.PairsAccepted)
				}
			})
		}
	}
}

// TestParallelFilterOff runs the parallel engine with SkipSameCluster off:
// the slaves' replicas and the master then drop nothing, so every generated
// pair is aligned exactly once, and the partition is still one worker's.
func TestParallelFilterOff(t *testing.T) {
	b := benchSet(t, 40, 4, 3)
	base := DefaultConfig(1)
	base.Window, base.Psi = 6, 18
	base.SkipSameCluster = false
	seqRes, err := Run(b.ESTs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(seqRes.Labels)
	for _, p := range []int{3, 5} {
		for _, mpCfg := range parallelModes(p) {
			t.Run(fmt.Sprintf("p%d_%s", p, modeName(mpCfg)), func(t *testing.T) {
				cfg := base
				cfg.MP = mpCfg
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(normalizeLabels(res.Labels), want) {
					t.Errorf("partition differs from p = 1's (%d clusters vs %d)", res.NumClusters, seqRes.NumClusters)
				}
				st := res.Stats
				if st.PairsSkipped != 0 || st.PairsProcessed != st.PairsGenerated {
					t.Errorf("skipped %d, processed %d of %d generated; want 0 skipped and every pair processed",
						st.PairsSkipped, st.PairsProcessed, st.PairsGenerated)
				}
			})
		}
	}
}

func TestParallelPhaseTimesPopulated(t *testing.T) {
	b := benchSet(t, 80, 5, 4)
	cfg := DefaultConfig(3)
	cfg.Window, cfg.Psi = 6, 18
	cfg.MP = mp.DefaultSimConfig(3)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Stats.Phases
	if ph.Construct <= 0 || ph.Align <= 0 || ph.Total <= 0 {
		t.Errorf("phases not measured: %+v", ph)
	}
	if ph.Construct > ph.Total || ph.Align > ph.Total {
		t.Errorf("phase exceeds total: %+v", ph)
	}
}

// The decreasing-order on-demand engine must not materialize all pairs: the
// master's counters can't exceed generation, and skipping must be visible on
// deep data sets.
func TestParallelCounters(t *testing.T) {
	b := benchSet(t, 100, 3, 5) // very deep coverage → many redundant pairs
	cfg := DefaultConfig(4)
	cfg.Window, cfg.Psi = 6, 18
	cfg.MP = mp.DefaultSimConfig(4)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PairsProcessed > st.PairsGenerated {
		t.Errorf("processed %d > generated %d", st.PairsProcessed, st.PairsGenerated)
	}
	if st.PairsSkipped == 0 {
		t.Error("deep data set should produce cluster-skips")
	}
	if st.PairsAccepted < st.Merges {
		t.Errorf("merges %d exceed accepted %d", st.Merges, st.PairsAccepted)
	}
}

func TestParallelManySlavesFewBuckets(t *testing.T) {
	// More slaves than occupied buckets: some slaves are born passive.
	b := benchSet(t, 30, 2, 6)
	cfg := DefaultConfig(8)
	cfg.Window, cfg.Psi = 4, 16
	cfg.MP = mp.DefaultSimConfig(8)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := metrics.Compare(res.Labels, b.Truth)
	if q.OQ < 0.5 {
		t.Errorf("quality collapsed with idle slaves: %v", q)
	}
}

func TestTinyWorkBuf(t *testing.T) {
	// A small WORKBUF exercises the nfree clamping and wait-queue paths.
	b := benchSet(t, 60, 4, 7)
	cfg := DefaultConfig(3)
	cfg.Window, cfg.Psi = 6, 18
	cfg.WorkBufCap = cfg.BatchSize
	cfg.MP = mp.DefaultSimConfig(3)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters <= 0 || res.NumClusters > 60 {
		t.Errorf("clusters: %d", res.NumClusters)
	}
}

func TestSmallBatchSize(t *testing.T) {
	b := benchSet(t, 50, 4, 8)
	cfg := DefaultConfig(3)
	cfg.Window, cfg.Psi = 6, 18
	cfg.BatchSize = 2
	cfg.WorkBufCap = 64
	cfg.MP = mp.DefaultSimConfig(3)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := metrics.Compare(res.Labels, b.Truth)
	if q.OQ < 0.6 {
		t.Errorf("tiny batches broke clustering: %v", q)
	}
}

func TestSingleESTAndTwo(t *testing.T) {
	b := benchSet(t, 2, 1, 9)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	res, err := Run(b.ESTs[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || len(res.Labels) != 1 {
		t.Errorf("single EST: %+v", res)
	}
	res, err = Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 2 {
		t.Errorf("two ESTs: %+v", res)
	}
}

func TestErrorFreeDataPerfectQuality(t *testing.T) {
	scfg := simulate.DefaultConfig(60)
	scfg.NumGenes = 4
	scfg.ErrorRate = 0
	scfg.Seed = 10
	scfg.MeanESTLen = 400
	scfg.SDESTLen = 30
	scfg.MinESTLen = 200
	scfg.ExonLen = [2]int{150, 180}
	scfg.ExonsPerGene = [2]int{3, 3}
	b, err := simulate.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := metrics.Compare(res.Labels, b.Truth)
	if q.OV != 0 {
		t.Errorf("error-free data must not over-predict: %v", q)
	}
	if q.OQ < 0.95 {
		t.Errorf("error-free quality: %v", q)
	}
}

// The simulated machine must show decreasing run-time with more processors
// on a fixed workload (Figure 6a's qualitative shape).
func TestSimScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test is slow")
	}
	b := benchSet(t, 200, 12, 11)
	timeFor := func(p int) time.Duration {
		cfg := DefaultConfig(p)
		cfg.Window, cfg.Psi = 6, 18
		cfg.MP = mp.DefaultSimConfig(p)
		res, err := Run(b.ESTs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Phases.Total
	}
	t3, t9 := timeFor(3), timeFor(9)
	if float64(t9) > 0.8*float64(t3) {
		t.Errorf("no speedup: p=3 %v, p=9 %v", t3, t9)
	}
}

func BenchmarkSequential200(b *testing.B) {
	bm := benchSet(b, 200, 12, 1)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(bm.ESTs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper reports the master stays well under 2% busy even at p=128; our
// master must likewise be a small fraction of the virtual run-time.
func TestMasterNotBottleneck(t *testing.T) {
	b := benchSet(t, 150, 8, 12)
	cfg := DefaultConfig(8)
	cfg.Window, cfg.Psi = 6, 18
	cfg.MP = mp.DefaultSimConfig(8)
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy := res.Stats.MasterBusy.Seconds()
	total := res.Stats.Phases.Total.Seconds()
	if total <= 0 {
		t.Fatal("no total time")
	}
	if frac := busy / total; frac > 0.10 {
		t.Errorf("master busy fraction %.1f%% too high", 100*frac)
	}
}

// Incremental seeding at the engine level (paper's open problem).
func TestInitialLabelsSeeding(t *testing.T) {
	b := benchSet(t, 80, 5, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	first, err := Run(b.ESTs[:60], cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	seeded.InitialLabels = first.Labels
	inc, err := Run(b.ESTs, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.PairsProcessed >= scratch.Stats.PairsProcessed {
		t.Errorf("seeding saved nothing: %d vs %d",
			inc.Stats.PairsProcessed, scratch.Stats.PairsProcessed)
	}
	// Too many labels must be rejected.
	bad := cfg
	bad.InitialLabels = make([]int32, len(b.ESTs)+1)
	if _, err := Run(b.ESTs, bad); err == nil {
		t.Error("oversized InitialLabels accepted")
	}
}

// Parallel engine must also honor InitialLabels.
func TestInitialLabelsParallel(t *testing.T) {
	b := benchSet(t, 60, 4, 14)
	cfg := DefaultConfig(3)
	cfg.Window, cfg.Psi = 6, 18
	cfg.MP = mp.DefaultSimConfig(3)
	labels := make([]int32, len(b.ESTs))
	copy(labels, b.Truth) // seed with the truth: nothing left to merge
	cfg.InitialLabels = labels
	res, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := metrics.Compare(res.Labels, b.Truth)
	if q.UN != 0 {
		t.Errorf("truth-seeded run must have no under-prediction: %v", q)
	}
}
