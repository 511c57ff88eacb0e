package cluster

import (
	"fmt"
	"time"

	"pace/internal/align"
	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
)

// The slave ranks (paper §3.1, §3.3): each builds the GST subtrees of its
// bucket share, generates promising pairs on demand in decreasing order of
// maximal common substring length, and aligns the batches the master
// dispatches — overlapping generation with the wait for the master's reply.
// Every processed pair's verdict rides the next report to the master.
//
// Each slave also keeps a replica of the master's union-find, fed by its own
// accepted verdicts and by the spanning edges each work message carries, and
// drops every pair the replica already joins: inside a batch before it is
// aligned, before a generated pair enters PAIRBUF, and over PAIRBUF whenever
// the replica has grown. This is the paper's same-cluster test, moved to
// where the stale pairs are. It is safe because a report carries every
// verdict the filtering of its own contents relied on, so the master already
// joins whatever the slave skipped by the time it reads the report.

func runSlave(set *seq.SetS, cfg Config, c *mp.Comm) error {
	pr := newProbes(cfg.Metrics)
	tw := cfg.Trace
	traceThreadName(tw, cfg.TracePID, c.Rank(), "slave")
	if err := cfg.ctxErr(); err != nil {
		return err
	}
	tStart := c.Elapsed()
	owner, _, err := prologue(set, cfg, c)
	if err != nil {
		return err
	}
	// Every rank holds the whole set, so the slave collects its own buckets
	// from it, as a survivor collects a dead slave's: partitioning is the
	// prologue and that scan.
	workers := rankWorkers(cfg)
	gens, tConstruct, tSort, err := rebuildShard(set, cfg, owner, shard{part: int32(c.Rank() - 1), idx: 0, of: 1}, workers, c.Elapsed)
	if err != nil {
		return err
	}
	tPart := c.Elapsed() - tStart - tConstruct - tSort
	tw.Span(cfg.TracePID, c.Rank(), "partition", "gst", tStart, tPart)
	tw.Span(cfg.TracePID, c.Rank(), "construct", "gst", tStart+tPart, tConstruct)
	tw.Span(cfg.TracePID, c.Rank(), "sort", "pairgen", tStart+tPart+tConstruct, tSort)
	chain := &genChain{gens: gens}

	ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
	if err != nil {
		return err
	}
	// The replica starts from the seed partition, as the master's does.
	replica, err := newClusters(cfg, set.NumESTs())
	if err != nil {
		return err
	}

	// n tallies the slave's pairs; results is the verdict buffer each batch
	// reuses once the previous report has been sent.
	var n batchCounts
	var results []alignResult
	alignNext := func(pairs []pairgen.Pair) error {
		tA := c.Elapsed()
		var b batchCounts
		var err error
		results, b, err = alignBatch(set, ext, cfg, replica, c.Elapsed, pairs, results[:0])
		n.add(b)
		pr.processed.Add(b.processed)
		if len(results) > 0 {
			tw.Span(cfg.TracePID, c.Rank(), "align", "cluster", tA, b.align)
		}
		return err
	}

	// PAIRBUF holds generated pairs the replica did not join when they
	// entered it. prune drops those it joins now from pairbuf[from:]; grow
	// generates up to k more and prunes them; fill grows PAIRBUF to k pairs
	// or until the chain runs dry.
	var pairbuf []pairgen.Pair
	prune := func(from int) {
		var d int64
		pairbuf, d = dropJoined(cfg, replica, pairbuf, from)
		n.skipped += d
	}
	grow := func(k int) {
		from := len(pairbuf)
		pairbuf = chain.Next(pairbuf, k)
		prune(from)
	}
	fill := func(k int) {
		for len(pairbuf) < k && chain.Remaining() {
			grow(k - len(pairbuf))
		}
	}
	prunedAt := 0 // the replica's cluster count when PAIRBUF was last pruned whole

	// Reports are encoded into one reusable buffer; safe under the mp
	// copy-on-send ownership contract.
	var wire []byte
	sendReport := func(rep report) error {
		wire = appendReport(wire[:0], rep)
		return c.Send(0, tagReport, wire)
	}

	// Bootstrap: three initial batches — align the first, report its
	// results together with the third, keep the second as NEXTWORK. The
	// unsolicited pairs are capped at the implicit bootstrap grant the
	// master charged against the WORKBUF for this slave; they are generated
	// after the first batch's verdicts, so the replica filters them.
	b1 := chain.Next(nil, cfg.BatchSize)
	b2 := chain.Next(nil, cfg.BatchSize)
	if err := alignNext(b1); err != nil {
		return err
	}
	fill(bootstrapGrant(cfg, c.Size()))
	next := b2
	first := report{
		results:     results,
		pairs:       pairbuf,
		passive:     !chain.Remaining(),
		hasNextWork: len(next) > 0,
	}
	pairbuf = nil
	if err := sendReport(first); err != nil {
		return err
	}

	bufCap := pairBufBatches * cfg.BatchSize
	nextFromMaster := false
	for {
		// Phase-boundary cancellation poll; the master polls too, so this
		// only shortens how long a slave keeps aligning after the abort.
		if err := cfg.ctxErr(); err != nil {
			return err
		}
		// ackThis: the batch about to be aligned came from the master, so
		// the report carrying its results retires it from the master's
		// in-flight FIFO (bootstrap batches are self-generated and must
		// not acknowledge anything).
		ackThis := nextFromMaster
		if err := alignNext(next); err != nil {
			return err
		}
		next = nil
		nextFromMaster = false

		// Overlap waiting with pair generation (paper: the slave is
		// never idle while the master prepares its reply).
		for {
			if err := cfg.ctxErr(); err != nil {
				return err
			}
			ok, err := c.Probe(0, tagWork)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if !chain.Remaining() || len(pairbuf) >= bufCap {
				break
			}
			grow(min(genChunk, bufCap-len(pairbuf)))
		}
		m, err := c.Recv(0, tagWork)
		if err != nil {
			return err
		}
		w, err := decodeWork(m.Data)
		if err != nil {
			return err
		}
		if w.stop {
			break
		}
		// Union the master's spanning edges into the replica. If it has
		// grown since PAIRBUF was last pruned whole, by these edges or by
		// the slave's own verdicts, prune all of PAIRBUF.
		if err := checkEdgeIDs(w.edges, set); err != nil {
			return err
		}
		for _, e := range w.edges {
			replica.Union(e[0], e[1])
		}
		if replica.Count() != prunedAt {
			prune(0)
			prunedAt = replica.Count()
		}

		// Rebuild any dead slave's shards assigned to us: every rank
		// holds the full string set, so a survivor can rescan it, keep
		// exactly the shard's buckets, and chain fresh generators over
		// them. Regenerated pairs may duplicate work the dead slave
		// already reported; the master's same-cluster filter and the
		// idempotence of merges absorb that.
		for _, sh := range w.recover {
			tR := c.Elapsed()
			gs, _, _, err := rebuildShard(set, cfg, owner, sh, workers, c.Elapsed)
			if err != nil {
				return err
			}
			chain.gens = append(chain.gens, gs...)
			dR := c.Elapsed() - tR
			tConstruct += dR
			tw.Span(cfg.TracePID, c.Rank(), "rebuild", "recovery", tR, dR)
		}

		// Top PAIRBUF up to the requested E.
		fill(int(w.e))
		p := min(int(w.e), len(pairbuf))
		outPairs := pairbuf[:p:p]
		pairbuf = pairbuf[p:]
		next = w.pairs
		nextFromMaster = len(w.pairs) > 0

		rep := report{
			results:     results,
			pairs:       outPairs,
			passive:     !chain.Remaining() && len(pairbuf) == 0,
			hasNextWork: len(next) > 0,
			ackWork:     ackThis,
		}
		if err := sendReport(rep); err != nil {
			return err
		}
	}

	mine := RankStats{
		Partition: tPart, Construct: tConstruct, Sort: tSort, Align: n.align,
		Total:          c.Elapsed() - tStart,
		PairsProcessed: n.processed, PairsAccepted: n.accepted, PairsSkipped: n.skipped,
	}
	for _, g := range chain.gens {
		mine.PairsGenerated += g.Stats().Generated
		mine.StaleSuppressed += g.Stats().DiscardedStale
	}
	fillComm(&mine, c.Stats())
	// Point-to-point phase report: a collective here would wedge the
	// survivors whenever a peer died mid-run.
	return c.Send(0, tagPhase, encodePhase(mine))
}

// checkEdgeIDs range-checks a work message's spanning edges before any of
// them indexes the slave's replica, as checkReportIDs does for reports at the
// master: decodeWork cannot know the set, and a word of 2³¹ or more decodes to
// a negative id, so as wire words both ends must fall below the EST count.
func checkEdgeIDs(edges [][2]int32, set *seq.SetS) error {
	ne := uint32(set.NumESTs())
	for _, e := range edges {
		for _, id := range e {
			if uint32(id) >= ne {
				return fmt.Errorf("cluster: master sent an edge on EST %d of %d", uint32(id), ne)
			}
		}
	}
	return nil
}

// genChain is the slave's pair source: its own chunks' generators, then
// those of the dead-slave shards it rebuilt during recovery.
type genChain struct {
	gens []*pairgen.Generator
}

// Next appends up to max more pairs to dst, in passes over the generators:
// each takes an equal share, ⌈lacking ÷ generators left⌉, of what the pass
// still lacks, so every chunk's longest pairs stay near the front of PAIRBUF.
// Over one generator this is that generator's stream.
func (g *genChain) Next(dst []pairgen.Pair, max int) []pairgen.Pair {
	want := len(dst) + max
	for len(dst) < want {
		from := len(dst)
		for i, gen := range g.gens {
			left := len(g.gens) - i
			dst = gen.Next(dst, (want-len(dst)+left-1)/left)
		}
		if len(dst) == from {
			break
		}
	}
	return dst
}

// Remaining reports whether any chained generator can still produce pairs.
func (g *genChain) Remaining() bool {
	for _, gen := range g.gens {
		if gen.Remaining() {
			return true
		}
	}
	return false
}

// rebuildShard collects a bucket shard from the whole string set and sets it
// up: a slave's own shard at the start of its run, and a dead slave's on a
// survivor. The scan visits every string in ascending id and position, so
// the rebuilt buckets and therefore the regenerated pairs are identical to
// what the dead slave held. It also returns setUp's construct and sort times.
func rebuildShard(set *seq.SetS, cfg Config, owner []int32, sh shard, workers int, clk func() time.Duration) ([]*pairgen.Generator, time.Duration, time.Duration, error) {
	// The shard as an assignment of its own: worker 0 owns its buckets.
	mine := make([]int32, len(owner))
	for b, o := range owner {
		if o != sh.part || int32(b)%sh.of != sh.idx {
			mine[b] = -1
		}
	}
	table := suffix.CollectOwned(set, cfg.Window, mine, 0, 0, seq.StringID(set.NumStrings()))
	// Fresh-only mode must survive recovery: a rebuilt shard regenerates the
	// dead slave's restricted pair stream, not the full one.
	return setUp(set, cfg, table, table.NonEmpty(), workers, clk)
}
