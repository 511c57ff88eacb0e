package cluster

// The engine is split along its roles:
//
//	engine.go — entry points, the sequential engine and its workers, and the
//	            phases every rank shares (prologue, cluster seeding, suffix
//	            redistribution ranges)
//	master.go — the master rank: dispatch, flow control, merging the
//	            slaves' per-pair verdicts, failure recovery
//	slave.go  — the slave rank: GST share, pair generation, alignment loop
//	codec.go  — the wire protocol

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/align"
	"pace/internal/fanout"
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
// length by Extend. With a non-nil replica it skips, and counts, every pair
// the replica already joins, and unions each accepted pair into it at once,
// so later pairs of the batch see the verdict.
func alignPairs(set *seq.SetS, ext *align.Extender, cfg Config, replica *unionfind.UF, pairs []pairgen.Pair) (out []alignResult, skipped int64, err error) {
	out = make([]alignResult, 0, len(pairs))
	ns := seq.StringID(set.NumStrings())
	for _, p := range pairs {
		if p.S1 < 0 || p.S1 >= ns || p.S2 < 0 || p.S2 >= ns {
			return nil, 0, fmt.Errorf("cluster: aligning pair %+v: string id out of range for %d strings", p, ns)
		}
		i, j := p.ESTs()
		if replica != nil && replica.Same(int32(i), int32(j)) {
			skipped++
			continue
		}
		res, err := ext.Extend(set.Str(p.S1), set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: aligning pair %+v: %w", p, err)
		}
		acc := res.Accept(cfg.Scoring, cfg.Criteria)
		if acc && replica != nil {
			replica.Union(int32(i), int32(j))
		}
		out = append(out, alignResult{estI: i, estJ: j, accepted: acc})
	}
	return out, skipped, nil
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

// runSequential is the single-process engine. Forest construction fans out
// over up to workers goroutines. Then the forest is cut into at most workers
// contiguous chunks of near-equal node count, as the paper spreads buckets
// over its processors, and each chunk gets a worker: a generator over the
// chunk, an Extender, and a loop that takes the chunk's next batch, skips
// same-cluster pairs, aligns the rest and merges the accepted ones into the
// one union-find every worker shares. Chunk 0 runs on this goroutine, so one
// worker is the inline loop and starts no goroutine. Every accepted pair is
// either merged or already joined, so the partition is the connected
// components of the accepted pairs and the seed, whatever the workers'
// interleaving. Which pairs a worker skips, and so the processed, accepted
// and skipped counts, may vary with workers > 1.
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
		// One process owns every bucket: its load is the histogram total.
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
	forest := fb.forest
	cuts := fanout.Cuts(len(forest), workers, func(i int) int { return len(forest[i].Nodes) })
	ws := make([]seqWorker, len(cuts)-1)
	err = fanout.Run(len(ws), func(k int) error {
		gen, err := pairgen.NewFresh(set, forest[cuts[k]:cuts[k+1]], cfg.Psi, cfg.FreshGen)
		if err != nil {
			return err
		}
		gen.Observe(pr.observer(clk))
		ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
		if err != nil {
			return err
		}
		ws[k] = seqWorker{lane: k, gen: gen, ext: ext, buf: make([]pairgen.Pair, 0, cfg.BatchSize)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.Phases.Sort = clk() - t2
	if tw != nil {
		tw.Span(cfg.TracePID, 0, "sort", "pairgen", t2-t0, st.Phases.Sort)
		for k := 1; k < len(ws); k++ {
			tw.ThreadName(cfg.TracePID, k, fmt.Sprintf("rank 0 (seq worker %d)", k))
		}
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
	run := &seqRun{
		set: set, cfg: cfg, uf: uf, pr: pr, clk: clk, t0: t0, st: st,
		ck: newCheckpointer(cfg, set.NumESTs(), st, pr, clk),
	}
	if err := fanout.Run(len(ws), func(k int) error { return run.drain(&ws[k]) }); err != nil {
		return nil, err
	}
	if err := run.ck.maybe(uf, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, true); err != nil {
		return nil, err
	}
	var stale int64
	for _, w := range ws {
		st.PairsGenerated += w.gen.Stats().Generated
		stale += w.gen.Stats().DiscardedStale
		st.Phases.Align = maxDur(st.Phases.Align, w.align)
	}
	if cfg.FreshGen > 0 {
		st.Incremental.FreshPairs = st.PairsGenerated
		st.Incremental.StaleSuppressed = stale
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

// seqWorker is one worker of the sequential engine: its chunk's generator,
// its own Extender and batch, its pair counts not yet added to the run's
// Stats, and its total Extend time.
type seqWorker struct {
	lane int // trace lane
	gen  *pairgen.Generator
	ext  *align.Extender
	buf  []pairgen.Pair

	processed, accepted, skipped, merges int64
	align                                time.Duration
}

// seqRun is what the sequential engine's workers share.
type seqRun struct {
	set *seq.SetS
	cfg Config
	uf  *unionfind.UF
	pr  *probes
	clk func() time.Duration
	t0  time.Duration
	// stop is set by the first worker to fail, so the others stop at their
	// next batch.
	stop atomic.Bool
	// mu guards st's pair counters and the checkpointer.
	mu sync.Mutex
	st *Stats
	ck *checkpointer
}

// drain runs one worker until its generator is exhausted, the run's context
// is canceled, a checkpoint fails or another worker has failed, and adds its
// counts to the run's Stats.
func (r *seqRun) drain(w *seqWorker) error {
	err := r.loop(w)
	if err != nil {
		r.stop.Store(true)
	}
	r.mu.Lock()
	r.fold(w)
	r.mu.Unlock()
	return err
}

func (r *seqRun) loop(w *seqWorker) error {
	cfg, pr, uf, tw := r.cfg, r.pr, r.uf, r.cfg.Trace
	for !r.stop.Load() {
		if err := cfg.ctxErr(); err != nil {
			return err
		}
		w.buf = w.gen.Next(w.buf[:0], cfg.BatchSize)
		if len(w.buf) == 0 {
			return nil
		}
		tBatch := r.clk() - r.t0
		var batchAlign time.Duration
		for _, p := range w.buf {
			i, j := p.ESTs()
			if cfg.SkipSameCluster && uf.Same(int32(i), int32(j)) {
				w.skipped++
				if pr != nil {
					pr.skipped.Inc()
				}
				continue
			}
			tA := r.clk()
			res, err := w.ext.Extend(r.set.Str(p.S1), r.set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
			batchAlign += r.clk() - tA
			if err != nil {
				return err
			}
			w.processed++
			if pr != nil {
				pr.processed.Inc()
			}
			if res.Accept(cfg.Scoring, cfg.Criteria) {
				w.accepted++
				if pr != nil {
					pr.accepted.Inc()
				}
				if uf.Union(int32(i), int32(j)) {
					w.merges++
					if pr != nil {
						pr.merges.Inc()
					}
				}
			}
		}
		w.align += batchAlign
		if tw != nil && batchAlign > 0 {
			tw.Span(cfg.TracePID, w.lane, "align", "cluster", tBatch, batchAlign)
		}
		if r.ck != nil {
			r.mu.Lock()
			r.fold(w)
			st := r.st
			err := r.ck.maybe(uf, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, false)
			r.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fold moves the worker's pair counts into the run's Stats; r.mu must be
// held.
func (r *seqRun) fold(w *seqWorker) {
	r.st.PairsProcessed += w.processed
	r.st.PairsAccepted += w.accepted
	r.st.PairsSkipped += w.skipped
	r.st.Merges += w.merges
	w.processed, w.accepted, w.skipped, w.merges = 0, 0, 0, 0
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
