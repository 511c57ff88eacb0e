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

// exchangeSuffixes is the redistribution step of §3.1: each slave scans its
// own share of the strings, groups every suffix by its bucket's owner, and
// ships the (bucket, string, position) triples to that owner. Each slave
// ends up holding exactly the suffixes of its buckets while having scanned
// only 1/(p-1) of the input. The global histogram fixes the receiving table's
// layout before the first message, so every triple goes to its final place
// as it arrives.
func exchangeSuffixes(set *seq.SetS, cfg Config, c *mp.Comm, owner []int32, hist []int64) (*suffix.Buckets, error) {
	slaves := c.Size() - 1
	me := c.Rank() - 1
	table, err := suffix.NewSizedBuckets(cfg.Window, hist, owner, int32(me))
	if err != nil {
		return nil, err
	}
	lo, hi := shareRange(me, slaves, set.NumStrings())
	perDest := make([][]uint32, slaves)
	for id := lo; id < hi; id++ {
		suffix.BucketEach(set.Str(id), cfg.Window, func(b int, pos int32) {
			o := owner[b]
			if o >= 0 {
				perDest[o] = append(perDest[o], uint32(b), uint32(id), uint32(pos))
			}
		})
	}
	var wire []byte // reused across destinations; mp copies on send
	for s := 0; s < slaves; s++ {
		if s == me {
			continue
		}
		wire = appendU32s(wire[:0], perDest[s])
		if err := c.Send(s+1, tagSuffix, wire); err != nil {
			return nil, err
		}
	}
	// Scatter in fixed source order: sources hold ascending string ranges,
	// so every bucket fills in (SID, Pos) order.
	for s := 0; s < slaves; s++ {
		flat := perDest[s]
		if s != me {
			m, err := c.Recv(s+1, tagSuffix)
			if err != nil {
				return nil, err
			}
			if flat, err = decodeU32s(m.Data); err != nil {
				return nil, err
			}
		}
		if err := scatterSuffixes(table, set, cfg.Window, owner, int32(me), flat); err != nil {
			return nil, fmt.Errorf("cluster: suffixes from slave %d: %w", s, err)
		}
	}
	if err := table.Seal(); err != nil {
		return nil, fmt.Errorf("cluster: suffix exchange fell short of the global histogram: %w", err)
	}
	return table, nil
}

// scatterSuffixes puts one suffix message's (bucket, string, position)
// triples into the slave's table. The words come off the wire, so each is
// checked before it indexes anything: a fragment, a bucket this slave does
// not own, a suffix no string has, or more suffixes than the global histogram
// announced for a bucket is an error.
func scatterSuffixes(table *suffix.Buckets, set *seq.SetS, w int, owner []int32, me int32, flat []uint32) error {
	if len(flat)%3 != 0 {
		return fmt.Errorf("cluster: %d words are not (bucket, string, position) triples", len(flat))
	}
	for i := 0; i < len(flat); i += 3 {
		b, sid, pos := flat[i], flat[i+1], flat[i+2]
		if int64(b) >= int64(len(owner)) {
			return fmt.Errorf("cluster: bucket %d out of range for window %d", b, w)
		}
		if owner[b] != me {
			return fmt.Errorf("cluster: bucket %d belongs to slave %d, not %d", b, owner[b], me)
		}
		if int64(sid) >= int64(set.NumStrings()) {
			return fmt.Errorf("cluster: string %d of %d", sid, set.NumStrings())
		}
		if int64(pos)+int64(w) > int64(len(set.Str(seq.StringID(sid)))) {
			return fmt.Errorf("cluster: string %d has no suffix of %d characters at %d", sid, w, pos)
		}
		if !table.Put(int(b), suffix.SuffixRef{SID: seq.StringID(sid), Pos: int32(pos)}) {
			return fmt.Errorf("cluster: bucket %d overflows the size the global histogram announced", b)
		}
	}
	return nil
}

func runSlave(set *seq.SetS, cfg Config, c *mp.Comm) error {
	pr := newProbes(cfg.Metrics)
	tw := cfg.Trace
	traceThreadName(tw, cfg.TracePID, c.Rank(), "slave")
	if err := cfg.ctxErr(); err != nil {
		return err
	}
	tStart := c.Elapsed()
	owner, hist, err := prologue(set, cfg, c)
	if err != nil {
		return err
	}
	table, err := exchangeSuffixes(set, cfg, c, owner, hist)
	if err != nil {
		return err
	}
	tPart := c.Elapsed() - tStart
	if tw != nil {
		tw.Span(cfg.TracePID, c.Rank(), "partition", "gst", tStart, tPart)
	}

	t1 := c.Elapsed()
	forest, err := suffix.BuildForest(set, table, cfg.Window)
	if err != nil {
		return err
	}
	tConstruct := c.Elapsed() - t1
	if tw != nil {
		tw.Span(cfg.TracePID, c.Rank(), "construct", "gst", t1, tConstruct)
	}

	t2 := c.Elapsed()
	gen0, err := pairgen.NewFresh(set, forest, cfg.Psi, cfg.FreshGen, 1)
	if err != nil {
		return err
	}
	gen0.Observe(pr.observer(c.Elapsed))
	// The chain starts with this slave's own partition; recovery appends
	// rebuilt dead-slave shards to it.
	chain := &genChain{gens: []*pairgen.Generator{gen0}}
	tSort := c.Elapsed() - t2
	if tw != nil {
		tw.Span(cfg.TracePID, c.Rank(), "sort", "pairgen", t2, tSort)
	}

	ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
	if err != nil {
		return err
	}

	var alignTime time.Duration
	var processed, accepted int64
	alignBatch := func(pairs []pairgen.Pair) ([]alignResult, error) {
		tA := c.Elapsed()
		out, err := alignPairs(set, ext, cfg, pairs)
		dA := c.Elapsed() - tA
		alignTime += dA
		processed += int64(len(pairs))
		var acc int64
		for _, r := range out {
			if r.accepted {
				acc++
			}
		}
		accepted += acc
		if pr != nil {
			pr.processed.Add(int64(len(pairs)))
			pr.accepted.Add(acc)
		}
		if tw != nil && len(pairs) > 0 {
			tw.Span(cfg.TracePID, c.Rank(), "align", "cluster", tA, dA)
		}
		return out, err
	}

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
	// master charged against the WORKBUF for this slave.
	b1 := chain.Next(nil, cfg.BatchSize)
	b2 := chain.Next(nil, cfg.BatchSize)
	pairbuf := chain.Next(nil, bootstrapGrant(cfg, c.Size()))
	results, err := alignBatch(b1)
	if err != nil {
		return err
	}
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
		results, err = alignBatch(next)
		if err != nil {
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
			chunk := min(genChunk, bufCap-len(pairbuf))
			pairbuf = chain.Next(pairbuf, chunk)
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

		// Rebuild any dead slave's shards assigned to us: every rank
		// holds the full string set, so a survivor can rescan it, keep
		// exactly the shard's buckets, and chain a fresh generator over
		// them. Regenerated pairs may duplicate work the dead slave
		// already reported; the master's same-cluster filter and the
		// idempotence of merges absorb that.
		for _, sh := range w.recover {
			tR := c.Elapsed()
			g, err := rebuildShard(set, cfg, owner, sh)
			if err != nil {
				return err
			}
			g.Observe(pr.observer(c.Elapsed))
			chain.add(g)
			dR := c.Elapsed() - tR
			tConstruct += dR
			if tw != nil {
				tw.Span(cfg.TracePID, c.Rank(), "rebuild", "recovery", tR, dR)
			}
		}

		// Top PAIRBUF up to the requested E.
		for len(pairbuf) < int(w.e) && chain.Remaining() {
			pairbuf = chain.Next(pairbuf, int(w.e)-len(pairbuf))
		}
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

	total := c.Elapsed() - tStart
	mine := phaseReport{
		partitionNs: int64(tPart),
		constructNs: int64(tConstruct),
		sortNs:      int64(tSort),
		alignNs:     int64(alignTime),
		totalNs:     int64(total),
		generated:   chain.Generated(),
		processed:   processed,
		accepted:    accepted,
		stale:       chain.Stale(),
	}
	fillComm(&mine, c.Stats())
	// Point-to-point phase report: a collective here would wedge the
	// survivors whenever a peer died mid-run.
	return c.Send(0, tagPhase, encodePhase(mine))
}

// genChain concatenates pair generators: the slave's own partition plus any
// dead-slave shards it rebuilt during recovery.
type genChain struct {
	gens []*pairgen.Generator
}

func (g *genChain) add(gen *pairgen.Generator) { g.gens = append(g.gens, gen) }

// Next appends up to max more pairs to dst, draining the generators in
// order.
func (g *genChain) Next(dst []pairgen.Pair, max int) []pairgen.Pair {
	want := len(dst) + max
	for _, gen := range g.gens {
		if len(dst) >= want {
			break
		}
		dst = gen.Next(dst, want-len(dst))
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

// Generated sums the pairs produced across the chain.
func (g *genChain) Generated() int64 {
	var n int64
	for _, gen := range g.gens {
		n += gen.Stats().Generated
	}
	return n
}

// Stale sums the old×old pairs the chain's generators suppressed in
// fresh-only mode.
func (g *genChain) Stale() int64 {
	var n int64
	for _, gen := range g.gens {
		n += gen.Stats().DiscardedStale
	}
	return n
}

// rebuildShard reconstructs a dead slave's bucket shard on a survivor. The
// rescan visits every string (ascending id, ascending position — the same
// order exchangeSuffixes produces), so the rebuilt buckets and therefore the
// regenerated pair stream are identical to what the dead slave held.
func rebuildShard(set *seq.SetS, cfg Config, owner []int32, sh shard) (*pairgen.Generator, error) {
	// The shard as an assignment of its own: worker 0 owns its buckets.
	mine := make([]int32, len(owner))
	for b, o := range owner {
		if o != sh.part || int32(b)%sh.of != sh.idx {
			mine[b] = -1
		}
	}
	table := suffix.CollectOwned(set, cfg.Window, mine, 0, 0, seq.StringID(set.NumStrings()))
	forest, err := suffix.BuildForest(set, table, cfg.Window)
	if err != nil {
		return nil, err
	}
	// Fresh-only mode must survive recovery: a rebuilt shard regenerates the
	// dead slave's restricted pair stream, not the full one.
	return pairgen.NewFresh(set, forest, cfg.Psi, cfg.FreshGen, 1)
}
