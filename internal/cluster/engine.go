package cluster

// The engine is split along its roles:
//
//	engine.go   — entry points, the sequential engine, and the phases every
//	              rank shares (prologue, cluster seeding, suffix
//	              redistribution ranges)
//	runahead.go — the sequential engine's pair drain, run ahead of its
//	              consumer on a goroutine of its own
//	master.go   — the master rank: dispatch, flow control, merging the
//	              slaves' per-pair verdicts, failure recovery
//	slave.go    — the slave rank: GST share, pair generation, alignment loop
//	codec.go    — the wire protocol

import (
	"fmt"
	"time"

	"pace/internal/align"
	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// Run clusters the given ESTs and returns the resulting partition with run
// statistics. With MP.Procs == 1 the whole pipeline runs sequentially in
// process; otherwise rank 0 acts as the master and ranks 1..p-1 as slaves on
// the configured message-passing machine.
func Run(ests []seq.Sequence, cfg Config) (*Result, error) {
	set, err := seq.NewSetS(ests)
	if err != nil {
		return nil, err
	}
	return RunSet(set, cfg)
}

// alignPairs runs the anchored banded extension on each pair and returns the
// per-pair verdicts. A slave's pairs come off the wire, where decodeWork
// cannot know the set: string ids are checked here, positions and match
// length by Extend.
func alignPairs(set *seq.SetS, ext *align.Extender, cfg Config, pairs []pairgen.Pair) ([]alignResult, error) {
	out := make([]alignResult, 0, len(pairs))
	ns := seq.StringID(set.NumStrings())
	for _, p := range pairs {
		if p.S1 < 0 || p.S1 >= ns || p.S2 < 0 || p.S2 >= ns {
			return nil, fmt.Errorf("cluster: aligning pair %+v: string id out of range for %d strings", p, ns)
		}
		res, err := ext.Extend(set.Str(p.S1), set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
		if err != nil {
			return nil, fmt.Errorf("cluster: aligning pair %+v: %w", p, err)
		}
		i, j := p.ESTs()
		out = append(out, alignResult{
			estI:     i,
			estJ:     j,
			accepted: res.Accept(cfg.Scoring, cfg.Criteria),
		})
	}
	return out, nil
}

// wallElapsed returns a monotonic clock counting from now. It is the
// sequential engine's time base: that path runs outside the mp machine, so
// real time is — by definition — its only clock.
func wallElapsed() func() time.Duration {
	//pacelint:allow walltime the sequential engine has no virtual clock; wall time is its time base
	t0 := time.Now()
	return func() time.Duration {
		//pacelint:allow walltime the sequential engine has no virtual clock; wall time is its time base
		return time.Since(t0)
	}
}

// runSequential is the single-process engine: generate batches in decreasing
// order, skip same-cluster pairs, align, merge. Forest construction and
// generator set-up fan out over up to workers goroutines. With workers > 1
// the pair drain runs on a producer goroutine of its own, ahead of the skip
// tests, alignments and merges on this one, into a buffer bounded by the
// input's length (runahead.go). Partition stays on this goroutine, and the
// result does not depend on workers.
func runSequential(set *seq.SetS, cfg Config, workers int) (*Result, error) {
	pr := newProbes(cfg.Metrics)
	tw := cfg.Trace
	if tw != nil {
		tw.ProcessName(cfg.TracePID, cfg.traceProcess())
		traceThreadName(tw, cfg.TracePID, 0, "seq")
	}
	res := &Result{}
	st := &res.Stats

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	clk := wallElapsed()
	t0 := clk()
	fb, err := buildSequentialForest(set, cfg, st, clk, workers)
	if err != nil {
		return nil, err
	}
	st.Phases.Partition = fb.partition
	st.Phases.Construct = fb.construct
	if pr != nil {
		// One worker owns every bucket: its load is the histogram total.
		var total int64
		for _, n := range fb.hist {
			total += n
		}
		pr.observeBuckets(fb.hist, []int64{total})
	}
	if tw != nil {
		tw.Span(cfg.TracePID, 0, "partition", "gst", 0, st.Phases.Partition)
		tw.Span(cfg.TracePID, 0, "construct", "gst", st.Phases.Partition, st.Phases.Construct)
	}

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	t2 := clk()
	gen, err := pairgen.NewFresh(set, fb.forest, cfg.Psi, cfg.FreshGen, workers)
	if err != nil {
		return nil, err
	}
	gen.Observe(pr.observer(clk))
	st.Phases.Sort = clk() - t2
	if tw != nil {
		tw.Span(cfg.TracePID, 0, "sort", "pairgen", t2-t0, st.Phases.Sort)
	}

	ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
	if err != nil {
		return nil, err
	}
	uf := unionfind.New(set.NumESTs())
	seedMerges, err := seedClusters(uf, cfg.InitialLabels, set.NumESTs())
	if err != nil {
		return nil, err
	}
	st.Recovery.SeedMerges = seedMerges
	if pr != nil {
		pr.seedMerges.Set(seedMerges)
	}
	if seedMerges > 0 {
		cfg.logger().Info("seeded prior partition", "merges", seedMerges)
	}
	ck := newCheckpointer(cfg, set.NumESTs(), st, pr, clk)
	drain := newPairDrain(gen, cfg.BatchSize, runAheadBatches(set.TotalChars(), cfg.BatchSize), workers)
	defer drain.join()
	for {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		buf := drain.next()
		if len(buf) == 0 {
			break
		}
		tBatch := clk() - t0
		var batchAlign time.Duration
		for _, p := range buf {
			i, j := p.ESTs()
			if cfg.SkipSameCluster && uf.Same(int32(i), int32(j)) {
				st.PairsSkipped++
				if pr != nil {
					pr.skipped.Inc()
				}
				continue
			}
			tA := clk()
			r, err := ext.Extend(set.Str(p.S1), set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
			batchAlign += clk() - tA
			if err != nil {
				return nil, err
			}
			st.PairsProcessed++
			if pr != nil {
				pr.processed.Inc()
			}
			if r.Accept(cfg.Scoring, cfg.Criteria) {
				st.PairsAccepted++
				if pr != nil {
					pr.accepted.Inc()
				}
				if uf.Union(int32(i), int32(j)) {
					st.Merges++
					if pr != nil {
						pr.merges.Inc()
					}
				}
			}
		}
		st.Phases.Align += batchAlign
		if tw != nil && batchAlign > 0 {
			tw.Span(cfg.TracePID, 0, "align", "cluster", tBatch, batchAlign)
		}
		if err := ck.maybe(uf, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, false); err != nil {
			return nil, err
		}
	}
	if err := ck.maybe(uf, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, true); err != nil {
		return nil, err
	}
	drain.join()
	st.PairsGenerated = gen.Stats().Generated
	if cfg.FreshGen > 0 {
		st.Incremental.FreshPairs = gen.Stats().Generated
		st.Incremental.StaleSuppressed = gen.Stats().DiscardedStale
	}
	if cfg.FreshGen > 0 || cfg.Cache != nil {
		pr.recordIncremental(st.Incremental)
	}
	st.Phases.Total = clk() - t0
	st.PerRank = []RankStats{{
		Rank: 0, Role: "seq",
		Partition: st.Phases.Partition, Construct: st.Phases.Construct,
		Sort: st.Phases.Sort, Align: st.Phases.Align, Total: st.Phases.Total,
		PairsGenerated: st.PairsGenerated, PairsProcessed: st.PairsProcessed,
		PairsAccepted: st.PairsAccepted,
	}}
	res.Labels = uf.Labels()
	res.NumClusters = uf.Count()
	return res, nil
}

// runParallel launches the master–slave machine. Under cfg.Recover a
// successful master is authoritative: slave ranks that died mid-run were
// recovered from, so their errors do not fail the run.
func runParallel(set *seq.SetS, cfg Config) (*Result, error) {
	var result *Result
	errs, err := mp.RunRanks(cfg.MP, func(c *mp.Comm) error {
		if c.Rank() == 0 {
			r, err := runMaster(set, cfg, c)
			result = r
			return err
		}
		return runSlave(set, cfg, c)
	})
	if err != nil {
		return nil, err
	}
	if errs[0] != nil || !cfg.Recover {
		if first := mp.FirstError(errs); first != nil {
			return nil, first
		}
	}
	return result, nil
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

// shareRange splits the 2n strings over the p-1 slaves for histogram
// computation; slave index si in [0, slaves).
func shareRange(si, slaves, total int) (seq.StringID, seq.StringID) {
	lo := si * total / slaves
	hi := (si + 1) * total / slaves
	return seq.StringID(lo), seq.StringID(hi)
}

// prologue is the partitioning phase run by every rank: per-share histogram,
// global summation (O(log p) allreduce), and the deterministic bucket-to-
// slave assignment. It also returns the global histogram so the master can
// publish the bucket-size distribution and redistribution skew.
func prologue(set *seq.SetS, cfg Config, c *mp.Comm) ([]int32, []int64, error) {
	slaves := c.Size() - 1
	var hist, freshHist []int64
	if c.Rank() == 0 {
		hist = make([]int64, suffix.NumBuckets(cfg.Window))
	} else {
		lo, hi := shareRange(c.Rank()-1, slaves, set.NumStrings())
		hist = suffix.Histogram(set, cfg.Window, lo, hi)
	}
	global, err := c.AllreduceSumInt64(hist)
	if err != nil {
		return nil, nil, err
	}
	if cfg.FreshGen == 0 {
		return suffix.Assign(global, slaves), global, nil
	}
	// Incremental run: a second allreduce sums the fresh-suffix histogram,
	// and only touched buckets get an owner — every pair involving a fresh
	// string lands in a bucket some fresh suffix falls into, so untouched
	// buckets are neither shipped nor rebuilt.
	if c.Rank() == 0 {
		freshHist = make([]int64, suffix.NumBuckets(cfg.Window))
	} else {
		lo, hi := shareRange(c.Rank()-1, slaves, set.NumStrings())
		freshHist = suffix.HistogramFrom(set, cfg.Window, cfg.FreshGen, lo, hi)
	}
	globalFresh, err := c.AllreduceSumInt64(freshHist)
	if err != nil {
		return nil, nil, err
	}
	return suffix.AssignFresh(global, globalFresh, slaves), global, nil
}

// fillComm snapshots a rank's communication counters into its phase report,
// taken just before the final gather so every rank's cut-off is uniform.
func fillComm(p *phaseReport, s mp.CommStats) {
	p.msgsSent, p.bytesSent = s.MsgsSent, s.BytesSent
	p.msgsRecv, p.bytesRecv = s.MsgsRecv, s.BytesRecv
	p.recvWaitNs = int64(s.RecvWait)
	p.collOps = s.Collectives.Ops()
	p.collTimeNs = int64(s.Collectives.Time)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
