// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4) on synthetic benchmarks, at configurable scale.
// Each experiment returns typed rows; cmd/experiments renders them as text
// tables and the module's top-level benchmarks wrap them as testing.B
// targets.
//
// Host-scale note: the paper ran 10,051–81,414 Arabidopsis ESTs on an IBM SP
// with up to 128 processors; this harness runs scaled-down EST counts on a
// simulated message-passing machine (see internal/mp), so the comparisons
// are of *shape* — who wins, by what factor, where the curves bend — not of
// absolute seconds.
package experiments

import (
	"time"

	"pace/internal/baseline"
	"pace/internal/cluster"
	"pace/internal/metrics"
	"pace/internal/mp"
	"pace/internal/seq"
	"pace/internal/simulate"
	"pace/internal/trim"
)

// Scale groups the data-set sizes used across experiments. The ratios track
// the paper's 10,051 : 30,000 : 60,018 : 81,414.
type Scale struct {
	Name string
	// QualitySizes are the four Table 1/2 data-set sizes.
	QualitySizes []int
	// Fig6Sizes are the Figure 6a curve sizes (paper: 10k/20k/40k/81,414).
	Fig6Sizes []int
	// ComponentN is the Table 3 / Figure 8 size (paper: 20,000).
	ComponentN int
	// Procs are the simulated machine sizes (paper: 8..128).
	Procs []int
	// BatchSizes sweeps Figure 8 (paper: up to 80, optimum 40–60).
	BatchSizes []int
	// BaselineBudgetPairs models Table 1's 512 MB memory ceiling for the
	// batch baseline, in materialized pairs.
	BaselineBudgetPairs int64
}

// Tiny is for unit tests and smoke runs (seconds).
var Tiny = Scale{
	Name:                "tiny",
	QualitySizes:        []int{120, 240, 480, 640},
	Fig6Sizes:           []int{120, 240, 480, 640},
	ComponentN:          240,
	Procs:               []int{2, 4, 8},
	BatchSizes:          []int{1, 4, 16, 60, 240},
	BaselineBudgetPairs: 200_000,
}

// Small is the default cmd/experiments scale (a few minutes total).
var Small = Scale{
	Name:                "small",
	QualitySizes:        []int{500, 1500, 3000, 4070},
	Fig6Sizes:           []int{500, 1000, 2000, 4070},
	ComponentN:          1000,
	Procs:               []int{8, 16, 32, 64, 128},
	BatchSizes:          []int{1, 2, 5, 10, 20, 40, 60, 120, 240},
	BaselineBudgetPairs: 600_000,
}

// Medium approaches the paper's ratios more closely (tens of minutes).
var Medium = Scale{
	Name:                "medium",
	QualitySizes:        []int{1005, 3000, 6001, 8141},
	Fig6Sizes:           []int{1000, 2000, 4000, 8141},
	ComponentN:          2000,
	Procs:               []int{8, 16, 32, 64, 128},
	BatchSizes:          []int{1, 2, 5, 10, 20, 40, 60, 120, 240},
	BaselineBudgetPairs: 2_500_000,
}

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "tiny":
		return Tiny, true
	case "small":
		return Small, true
	case "medium":
		return Medium, true
	}
	return Scale{}, false
}

// Dataset generates the standard benchmark for size n: ~20x depth, paper-like
// read lengths, 2% error, unknown strands.
func Dataset(n int, seed int64) (*simulate.Benchmark, error) {
	cfg := simulate.DefaultConfig(n)
	cfg.Seed = seed
	return simulate.Generate(cfg)
}

// engineConfig is the standard PaCE configuration for the harness.
func engineConfig(p int) cluster.Config {
	cfg := cluster.DefaultConfig(p)
	if p > 1 {
		cfg.MP = mp.DefaultSimConfig(p)
	}
	return cfg
}

// baselineOptions gives the comparators engineConfig's operating point.
func baselineOptions(budget int64) baseline.Options {
	cfg := engineConfig(1)
	return baseline.Options{
		Window:            cfg.Window,
		Psi:               cfg.Psi,
		Scoring:           cfg.Scoring,
		Criteria:          cfg.Criteria,
		Band:              cfg.Band,
		MemoryBudgetPairs: budget,
	}
}

// ---------------------------------------------------------------- Table 1

// Table1Row compares the batch baseline (CAP3/Phrap/TIGR stand-in) with
// PaCE at one data-set size. Baseline 'X' entries (insufficient memory)
// surface as OutOfMemory.
type Table1Row struct {
	N             int
	BaselineTime  time.Duration
	BaselinePairs int64 // materialized pairs (peak)
	BaselineBytes int64 // = 20 * pairs, the Table 1 memory axis
	OutOfMemory   bool
	PaceTime      time.Duration
	PacePeakPairs int64 // PaCE's bounded in-flight pair window
}

// Table1 runs the run-time/memory comparison at each size.
func Table1(sc Scale, seed int64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, n := range sc.QualitySizes {
		b, err := Dataset(n, seed)
		if err != nil {
			return nil, err
		}
		row := Table1Row{N: n}

		base, err := baseline.AllPairs(b.ESTs, baselineOptions(sc.BaselineBudgetPairs))
		if err != nil {
			return nil, err
		}
		row.BaselineTime = base.Elapsed
		row.BaselinePairs = base.PairsMaterialized
		row.BaselineBytes = base.PairBytes
		row.OutOfMemory = base.OutOfMemory

		cfg := engineConfig(1)
		start := time.Now()
		res, err := cluster.Run(b.ESTs, cfg)
		if err != nil {
			return nil, err
		}
		row.PaceTime = time.Since(start)
		row.PacePeakPairs = int64(cfg.WorkBufCap + 4*cfg.BatchSize)
		_ = res
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row holds quality metrics for our engine and the baseline at one
// size. BaselineRan is false where the baseline exceeded its memory budget
// (the paper's CAP3 'X' at 81,414).
type Table2Row struct {
	N           int
	Ours        metrics.Quality
	Baseline    metrics.Quality
	BaselineRan bool
}

// Table2 runs the quality assessment at each size.
func Table2(sc Scale, seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, n := range sc.QualitySizes {
		b, err := Dataset(n, seed)
		if err != nil {
			return nil, err
		}
		row := Table2Row{N: n}

		res, err := cluster.Run(b.ESTs, engineConfig(1))
		if err != nil {
			return nil, err
		}
		row.Ours, err = metrics.Compare(res.Labels, b.Truth)
		if err != nil {
			return nil, err
		}

		base, err := baseline.AllPairs(b.ESTs, baselineOptions(sc.BaselineBudgetPairs))
		if err != nil {
			return nil, err
		}
		if !base.OutOfMemory {
			row.BaselineRan = true
			row.Baseline, err = metrics.Compare(base.Labels, b.Truth)
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 3

// Table3Row is the per-component virtual-time breakdown at one machine size.
type Table3Row struct {
	P      int
	Phases cluster.PhaseTimes
}

// Table3 sweeps processor counts on the simulated machine at fixed n.
func Table3(sc Scale, seed int64) ([]Table3Row, error) {
	b, err := Dataset(sc.ComponentN, seed)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, p := range sc.Procs {
		res, err := cluster.Run(b.ESTs, engineConfig(p))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{P: p, Phases: res.Stats.Phases})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Figure 6

// Fig6Point is one (n, p) → virtual run-time sample.
type Fig6Point struct {
	N, P int
	Time time.Duration
}

// Fig6a measures run-time vs processors for each curve size.
func Fig6a(sc Scale, seed int64) ([]Fig6Point, error) {
	var pts []Fig6Point
	for _, n := range sc.Fig6Sizes {
		b, err := Dataset(n, seed)
		if err != nil {
			return nil, err
		}
		for _, p := range sc.Procs {
			res, err := cluster.Run(b.ESTs, engineConfig(p))
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig6Point{N: n, P: p, Time: res.Stats.Phases.Total})
		}
	}
	return pts, nil
}

// Fig6b measures run-time vs data size at the paper's p=64 point (the
// largest machine size in the scale's sweep, 64 when present).
func Fig6b(sc Scale, seed int64) ([]Fig6Point, error) {
	p := sc.Procs[len(sc.Procs)-1]
	for _, q := range sc.Procs {
		if q == 64 {
			p = 64
		}
	}
	var pts []Fig6Point
	for _, n := range sc.Fig6Sizes {
		b, err := Dataset(n, seed)
		if err != nil {
			return nil, err
		}
		res, err := cluster.Run(b.ESTs, engineConfig(p))
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig6Point{N: n, P: p, Time: res.Stats.Phases.Total})
	}
	return pts, nil
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row counts pairs generated / processed / accepted at one size.
type Fig7Row struct {
	N         int
	Generated int64
	Processed int64
	Accepted  int64
}

// Fig7 runs the sequential engine at each size and reports its counters.
func Fig7(sc Scale, seed int64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, n := range sc.QualitySizes {
		b, err := Dataset(n, seed)
		if err != nil {
			return nil, err
		}
		res, err := cluster.Run(b.ESTs, engineConfig(1))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			N:         n,
			Generated: res.Stats.PairsGenerated,
			Processed: res.Stats.PairsProcessed,
			Accepted:  res.Stats.PairsAccepted,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Figure 8

// Fig8Row is run-time at one batchsize (fixed n and p).
type Fig8Row struct {
	Batch int
	Time  time.Duration
}

// Fig8 sweeps batchsize at fixed n on a fixed simulated machine (paper:
// 20,000 ESTs, p=32).
func Fig8(sc Scale, seed int64) ([]Fig8Row, error) {
	b, err := Dataset(sc.ComponentN, seed)
	if err != nil {
		return nil, err
	}
	p := 32
	found := false
	for _, q := range sc.Procs {
		if q == 32 {
			found = true
		}
	}
	if !found {
		p = sc.Procs[len(sc.Procs)/2]
	}
	var rows []Fig8Row
	for _, batch := range sc.BatchSizes {
		cfg := engineConfig(p)
		cfg.BatchSize = batch
		if cfg.WorkBufCap < batch {
			cfg.WorkBufCap = 4 * batch
		}
		res, err := cluster.Run(b.ESTs, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Batch: batch, Time: res.Stats.Phases.Total})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Ablations

// AblationRow compares design variants on one data set.
type AblationRow struct {
	Variant        string
	Time           time.Duration
	PairsProcessed int64
	Quality        metrics.Quality
}

// Ablations quantifies the design choices DESIGN.md calls out: pair order,
// cluster-aware skipping, and anchored banded versus full alignment.
func Ablations(n int, seed int64) ([]AblationRow, error) {
	b, err := Dataset(n, seed)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	add := func(name string, t time.Duration, processed int64, labels []int32) error {
		q, err := metrics.Compare(labels, b.Truth)
		if err != nil {
			return err
		}
		rows = append(rows, AblationRow{Variant: name, Time: t, PairsProcessed: processed, Quality: q})
		return nil
	}

	cfg := engineConfig(1)
	start := time.Now()
	res, err := cluster.Run(b.ESTs, cfg)
	if err != nil {
		return nil, err
	}
	if err := add("pace (greedy order, skip, banded)", time.Since(start), res.Stats.PairsProcessed, res.Labels); err != nil {
		return nil, err
	}

	noskip := cfg
	noskip.SkipSameCluster = false
	start = time.Now()
	res, err = cluster.Run(b.ESTs, noskip)
	if err != nil {
		return nil, err
	}
	if err := add("no cluster-aware skipping", time.Since(start), res.Stats.PairsProcessed, res.Labels); err != nil {
		return nil, err
	}

	bopt := baselineOptions(0)
	bopt.Seed = seed
	arb, err := baseline.ArbitraryOrder(b.ESTs, bopt)
	if err != nil {
		return nil, err
	}
	if err := add("arbitrary pair order", arb.Elapsed, arb.PairsProcessed, arb.Labels); err != nil {
		return nil, err
	}

	full, err := baseline.AllPairs(b.ESTs, bopt)
	if err != nil {
		return nil, err
	}
	if err := add("full-DP alignment, batch pairs", full.Elapsed, full.PairsProcessed, full.Labels); err != nil {
		return nil, err
	}
	return rows, nil
}

// ------------------------------------------------------------- Trim study

// TrimRow contrasts clustering raw tailed reads against trimmed reads.
type TrimRow struct {
	Variant        string
	PairsGenerated int64
	PairsProcessed int64
	Time           time.Duration
	Quality        metrics.Quality
}

// TrimStudy quantifies why EST pipelines trim poly(A) tails before
// suffix-tree clustering: tails give every tailed read pair a long common
// A-run, flooding the pair generator with spurious work.
func TrimStudy(n int, seed int64) ([]TrimRow, error) {
	cfg := simulate.DefaultConfig(n)
	cfg.Seed = seed
	cfg.PolyATail = [2]int{15, 40}
	b, err := simulate.Generate(cfg)
	if err != nil {
		return nil, err
	}

	run := func(name string, ests []seq.Sequence) (TrimRow, error) {
		start := time.Now()
		res, err := cluster.Run(ests, engineConfig(1))
		if err != nil {
			return TrimRow{}, err
		}
		q, err := metrics.Compare(res.Labels, b.Truth)
		if err != nil {
			return TrimRow{}, err
		}
		return TrimRow{
			Variant:        name,
			PairsGenerated: res.Stats.PairsGenerated,
			PairsProcessed: res.Stats.PairsProcessed,
			Time:           time.Since(start),
			Quality:        q,
		}, nil
	}

	raw, err := run("raw (poly(A) tails)", b.ESTs)
	if err != nil {
		return nil, err
	}
	trimmed, _ := trim.Batch(b.ESTs, trim.DefaultOptions())
	clean, err := run("trimmed", trimmed)
	if err != nil {
		return nil, err
	}
	return []TrimRow{raw, clean}, nil
}

// ------------------------------------------------- Incremental ingest study

// IncrementalRow is one variant of the batch-ingest comparison: the initial
// collection, a from-scratch re-cluster of the union, and the incremental
// ingest of the same batch into a warm session.
type IncrementalRow struct {
	Variant         string
	N               int
	PairsGenerated  int64
	PairsProcessed  int64
	Time            time.Duration
	BucketsRebuilt  int64
	BucketsReused   int64
	StaleSuppressed int64
	Quality         metrics.Quality
}

// IncrementalStudy measures the paper's closing open problem — the cost of
// adjusting clusters when a new batch of ESTs is sequenced — on a 90/10
// split: cluster 90% of the data set as the established collection, then
// ingest the remaining 10% both from scratch and incrementally. The two
// union variants must produce the same partition; the interesting axes are
// pair work and wall time.
func IncrementalStudy(n int, seed int64) ([]IncrementalRow, error) {
	b, err := Dataset(n, seed)
	if err != nil {
		return nil, err
	}
	cut := n * 9 / 10
	cfg := engineConfig(1)

	set, err := seq.NewSetS(b.ESTs[:cut])
	if err != nil {
		return nil, err
	}
	cache := cluster.NewBucketCache()
	c1 := cfg
	c1.Cache = cache
	start := time.Now()
	r1, err := cluster.RunSet(set, c1)
	if err != nil {
		return nil, err
	}
	initial := IncrementalRow{
		Variant:        "initial (90%)",
		N:              cut,
		PairsGenerated: r1.Stats.PairsGenerated,
		PairsProcessed: r1.Stats.PairsProcessed,
		Time:           time.Since(start),
	}

	start = time.Now()
	full, err := cluster.Run(b.ESTs, cfg)
	if err != nil {
		return nil, err
	}
	scratch := IncrementalRow{
		Variant:        "union from scratch",
		N:              n,
		PairsGenerated: full.Stats.PairsGenerated,
		PairsProcessed: full.Stats.PairsProcessed,
		Time:           time.Since(start),
	}
	if scratch.Quality, err = metrics.Compare(full.Labels, b.Truth); err != nil {
		return nil, err
	}

	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		return nil, err
	}
	c2 := cfg
	c2.Cache = cache
	c2.FreshGen = gen
	c2.InitialLabels = r1.Labels
	start = time.Now()
	r2, err := cluster.RunSet(set, c2)
	if err != nil {
		return nil, err
	}
	incr := IncrementalRow{
		Variant:         "union incremental (+10%)",
		N:               n,
		PairsGenerated:  r2.Stats.PairsGenerated,
		PairsProcessed:  r2.Stats.PairsProcessed,
		Time:            time.Since(start),
		BucketsRebuilt:  r2.Stats.Incremental.BucketsRebuilt,
		BucketsReused:   r2.Stats.Incremental.BucketsReused,
		StaleSuppressed: r2.Stats.Incremental.StaleSuppressed,
	}
	if incr.Quality, err = metrics.Compare(r2.Labels, b.Truth); err != nil {
		return nil, err
	}
	return []IncrementalRow{initial, scratch, incr}, nil
}
