package cluster

// The engine is split along its roles:
//
//	engine.go — entry points, the batch step every aligning rank runs
//	            (filter → align → merge), the stale-pair filter, cluster
//	            seeding, the sequential engine and its workers, and the
//	            phases every rank shares (prologue, the bucket set-up and
//	            its worker count, suffix redistribution ranges, the
//	            per-rank report)
//	master.go — the master rank: dispatch, flow control, merging the
//	            slaves' per-pair verdicts, failure recovery
//	slave.go  — the slave rank: GST share, pair generation, its replica
//	            union-find and report loop
//	codec.go  — the wire protocol

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/align"
	"pace/internal/fanout"
	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/telemetry"
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

// batchCounts tallies what alignBatch did with a batch: pairs aligned, pairs
// accepted, pairs skipped as already joined, accepted pairs whose union
// joined two clusters, and the time spent inside Extend.
type batchCounts struct {
	processed, accepted, skipped, merges int64
	align                                time.Duration
}

func (n *batchCounts) add(b batchCounts) {
	n.processed += b.processed
	n.accepted += b.accepted
	n.skipped += b.skipped
	n.merges += b.merges
	n.align += b.align
}

// alignBatch is the clustering step of §3.3, the one every aligning rank
// runs on its union-find — the shared one in the sequential engine, a
// replica on a slave. For each pair in turn it skips the pair if uf already
// joins its ESTs (under cfg.SkipSameCluster), otherwise aligns it, timing
// Extend on clk, and unions an accepted pair at once so later pairs of the
// batch see the verdict. Verdicts are appended to out, which the caller
// reuses across batches. A slave's pairs come off the wire, where decodeWork
// cannot know the set: string ids are checked here, positions and match
// length by Extend.
func alignBatch(set *seq.SetS, ext *align.Extender, cfg Config, uf *unionfind.UF, clk func() time.Duration, pairs []pairgen.Pair, out []alignResult) ([]alignResult, batchCounts, error) {
	var n batchCounts
	ns := seq.StringID(set.NumStrings())
	for _, p := range pairs {
		if p.S1 < 0 || p.S1 >= ns || p.S2 < 0 || p.S2 >= ns {
			return out, n, fmt.Errorf("cluster: aligning pair %+v: string id out of range for %d strings", p, ns)
		}
		i, j := p.ESTs()
		if cfg.SkipSameCluster && uf.Same(int32(i), int32(j)) {
			n.skipped++
			continue
		}
		t0 := clk()
		res, err := ext.Extend(set.Str(p.S1), set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
		n.align += clk() - t0
		if err != nil {
			return out, n, fmt.Errorf("cluster: aligning pair %+v: %w", p, err)
		}
		n.processed++
		acc := res.Accept(cfg.Scoring, cfg.Criteria)
		if acc {
			n.accepted++
			if uf.Union(int32(i), int32(j)) {
				n.merges++
			}
		}
		out = append(out, alignResult{estI: i, estJ: j, accepted: acc})
	}
	return out, n, nil
}

// dropJoined removes from pairs[from:], in place and keeping order, every
// pair whose ESTs uf already joins (under cfg.SkipSameCluster), and returns
// the shortened slice and how many it dropped.
func dropJoined(cfg Config, uf *unionfind.UF, pairs []pairgen.Pair, from int) ([]pairgen.Pair, int64) {
	if !cfg.SkipSameCluster {
		return pairs, 0
	}
	kept := pairs[:from]
	for _, p := range pairs[from:] {
		i, j := p.ESTs()
		if !uf.Same(int32(i), int32(j)) {
			kept = append(kept, p)
		}
	}
	return kept, int64(len(pairs) - len(kept))
}

// rankWorkers is how many cores a rank sets up its buckets on. The
// sequential engine is the whole machine and keeps every core; the p−1
// slaves of the real transport share them. A simulated rank gets one: the
// DES charges a rank's compute to one modelled processor, which a rank on
// four cores would make four times faster than the one it stands for.
func rankWorkers(cfg Config) int {
	if cfg.MP.Procs > 1 && cfg.MP.Mode == mp.ModeSim {
		return 1
	}
	return max(1, runtime.GOMAXPROCS(0)/max(1, cfg.MP.Procs-1))
}

// setUp is every rank's job on its buckets (§3.1–3.2): build the listed
// buckets of table on up to workers goroutines, cut the forest into at most
// workers contiguous chunks of near-equal node count, and set up one
// generator per chunk, concurrently, observed by generated. The chunks
// partition the forest's nodes, so the generators together emit the whole
// forest's pairs. It also returns the build (construct) and the set-up
// (sort) times on clk.
func setUp(set *seq.SetS, cfg Config, table *suffix.Buckets, ids []int32, workers int, generated *telemetry.Counter, clk func() time.Duration) (gens []*pairgen.Generator, construct, sort time.Duration, err error) {
	t0 := clk()
	forest, err := suffix.BuildBuckets(set, table, ids, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := clk()
	cuts := fanout.Cuts(len(forest), workers, func(i int) int { return len(forest[i].Nodes) })
	gens = make([]*pairgen.Generator, len(cuts)-1)
	err = fanout.Run(len(gens), func(k int) error {
		gen, err := pairgen.NewFresh(set, forest[cuts[k]:cuts[k+1]], cfg.Psi, cfg.FreshGen)
		if err != nil {
			return err
		}
		gen.Observe(generated)
		gens[k] = gen
		return nil
	})
	return gens, t1 - t0, clk() - t1, err
}

// runSequential is the single-process engine. It sets up over up to workers
// goroutines (setUp), and each chunk of the forest gets a worker: the chunk's
// generator, an Extender, and a loop that takes the chunk's next batch, skips
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
	tw.ProcessName(cfg.TracePID, cfg.traceProcess())
	traceThreadName(tw, cfg.TracePID, 0, "seq")
	res := &Result{}
	st := &res.Stats

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	clk := telemetry.NewWallClock().Elapsed
	t0 := clk()
	table, touched, err := sequentialTable(set, cfg)
	if err != nil {
		return nil, err
	}
	hist := table.Histogram()
	st.Phases.Partition = clk() - t0
	// One process owns every bucket: its load is the histogram total.
	var total int64
	for _, n := range hist {
		total += n
	}
	pr.observeBuckets(hist, []int64{total})
	if cfg.Cache != nil || cfg.FreshGen > 0 {
		st.Incremental.BucketsRebuilt = int64(len(touched))
		st.Incremental.BucketsReused = nonEmptyBuckets(hist) - int64(len(touched))
	}

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	gens, construct, sort, err := setUp(set, cfg, table, touched, workers, pr.generated, clk)
	if err != nil {
		return nil, err
	}
	st.Phases.Construct, st.Phases.Sort = construct, sort
	tw.Span(cfg.TracePID, 0, "partition", "gst", 0, st.Phases.Partition)
	tw.Span(cfg.TracePID, 0, "construct", "gst", st.Phases.Partition, construct)
	tw.Span(cfg.TracePID, 0, "sort", "pairgen", st.Phases.Partition+construct, sort)
	ws := make([]seqWorker, len(gens))
	for k, gen := range gens {
		ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
		if err != nil {
			return nil, err
		}
		ws[k] = seqWorker{lane: k, gen: gen, ext: ext, buf: make([]pairgen.Pair, 0, cfg.BatchSize)}
		if k > 0 {
			tw.ThreadName(cfg.TracePID, k, fmt.Sprintf("rank 0 (seq worker %d)", k))
		}
	}

	uf, err := seededClusters(cfg, set.NumESTs(), st)
	if err != nil {
		return nil, err
	}
	run := &seqRun{
		set: set, cfg: cfg, uf: uf, pr: pr, clk: clk, t0: t0, st: st,
		ck: newCheckpointer(cfg, set.NumESTs(), st, clk),
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
		st.Phases.Align = max(st.Phases.Align, w.align)
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
		PairsAccepted: st.PairsAccepted, PairsSkipped: st.PairsSkipped,
		StaleSuppressed: st.Incremental.StaleSuppressed,
	}}
	res.Labels = uf.Labels()
	res.NumClusters = uf.Count()
	return res, nil
}

// seqWorker is one worker of the sequential engine: its chunk's generator,
// its own Extender, batch and verdict buffer, its pair counts not yet added
// to the run's Stats, and its total Extend time.
type seqWorker struct {
	lane int // trace lane
	gen  *pairgen.Generator
	ext  *align.Extender
	buf  []pairgen.Pair
	out  []alignResult

	n     batchCounts
	align time.Duration
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
	cfg, pr, tw := r.cfg, r.pr, r.cfg.Trace
	for !r.stop.Load() {
		if err := cfg.ctxErr(); err != nil {
			return err
		}
		w.buf = w.gen.Next(w.buf[:0], cfg.BatchSize)
		if len(w.buf) == 0 {
			return nil
		}
		tBatch := r.clk() - r.t0
		var n batchCounts
		var err error
		w.out, n, err = alignBatch(r.set, w.ext, cfg, r.uf, r.clk, w.buf, w.out[:0])
		w.n.add(n)
		w.align += n.align
		pr.processed.Add(n.processed)
		if err != nil {
			return err
		}
		if n.align > 0 {
			tw.Span(cfg.TracePID, w.lane, "align", "cluster", tBatch, n.align)
		}
		if r.ck != nil {
			r.mu.Lock()
			r.fold(w)
			st := r.st
			err := r.ck.maybe(r.uf, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped, st.Merges, false)
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
	r.st.PairsProcessed += w.n.processed
	r.st.PairsAccepted += w.n.accepted
	r.st.PairsSkipped += w.n.skipped
	r.st.Merges += w.n.merges
	w.n = batchCounts{}
}

// runParallel launches the master–slave machine. A successful master is
// authoritative: slave ranks that died mid-run were recovered from, so
// their errors do not fail the run.
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
	if errs[0] != nil {
		if first := mp.FirstError(errs); first != nil {
			return nil, first
		}
	}
	return result, nil
}

// newClusters is the union-find every aligning rank starts from: one
// cluster per EST, with the ESTs that share a non-negative cfg.InitialLabels
// label merged. Labels may cover only a prefix of the ESTs (old batch before
// newly arrived ones).
func newClusters(cfg Config, n int) (*unionfind.UF, error) {
	if len(cfg.InitialLabels) > n {
		return nil, fmt.Errorf("cluster: %d initial labels for %d ESTs", len(cfg.InitialLabels), n)
	}
	uf := unionfind.New(n)
	first := make(map[int32]int32)
	for i, l := range cfg.InitialLabels {
		if l < 0 {
			continue
		}
		if f, ok := first[l]; ok {
			uf.Union(f, int32(i))
		} else {
			first[l] = int32(i)
		}
	}
	return uf, nil
}

// seededClusters is newClusters for the rank that owns the run's partition.
// It also records the merges the seed took — each joined two of the n
// singletons — in st and the log, so a resumed run can report how
// much work the seed (e.g. a checkpoint) already covered.
func seededClusters(cfg Config, n int, st *Stats) (*unionfind.UF, error) {
	uf, err := newClusters(cfg, n)
	if err != nil {
		return nil, err
	}
	merges := int64(n - uf.Count())
	st.Recovery.SeedMerges = merges
	if merges > 0 {
		cfg.logger().Info("seeded prior partition", "merges", merges)
	}
	return uf, nil
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
	// sum is the global histogram of the suffixes of strings of generation
	// from or later: each slave counts its share, the master none.
	sum := func(from seq.Gen) ([]int64, error) {
		if c.Rank() == 0 {
			return c.AllreduceSumInt64(make([]int64, suffix.NumBuckets(cfg.Window)))
		}
		lo, hi := shareRange(c.Rank()-1, slaves, set.NumStrings())
		return c.AllreduceSumInt64(suffix.HistogramFrom(set, cfg.Window, from, lo, hi))
	}
	global, err := sum(0)
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
	globalFresh, err := sum(cfg.FreshGen)
	if err != nil {
		return nil, nil, err
	}
	return suffix.AssignFresh(global, globalFresh, slaves), global, nil
}

// fillComm snapshots a rank's communication counters into its report row,
// taken just before the final send so every rank's cut-off is uniform.
func fillComm(rs *RankStats, s mp.CommStats) {
	rs.MsgsSent, rs.BytesSent = s.MsgsSent, s.BytesSent
	rs.MsgsRecv, rs.BytesRecv = s.MsgsRecv, s.BytesRecv
	rs.RecvWait = s.RecvWait
	rs.CollectiveOps = s.Collectives.Ops()
	rs.CollectiveTime = s.Collectives.Time
}

// addRank folds one rank's row into the run's totals — each phase is the
// maximum over ranks, each counter the sum — and appends it to PerRank.
func (st *Stats) addRank(rs RankStats) {
	st.Phases.Partition = max(st.Phases.Partition, rs.Partition)
	st.Phases.Construct = max(st.Phases.Construct, rs.Construct)
	st.Phases.Sort = max(st.Phases.Sort, rs.Sort)
	st.Phases.Align = max(st.Phases.Align, rs.Align)
	st.Phases.Total = max(st.Phases.Total, rs.Total)
	st.PairsGenerated += rs.PairsGenerated
	st.PairsProcessed += rs.PairsProcessed
	st.PairsAccepted += rs.PairsAccepted
	st.PairsSkipped += rs.PairsSkipped
	st.Incremental.StaleSuppressed += rs.StaleSuppressed
	st.PerRank = append(st.PerRank, rs)
}
