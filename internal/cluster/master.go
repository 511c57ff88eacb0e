package cluster

import (
	"errors"
	"fmt"
	"time"

	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// The master rank (paper §3.3): it owns the cluster structure and the
// bounded WORKBUF of promising pairs, dispatches alignment batches to the
// slaves under the E = min(α·δ·batchsize, nfree/p) flow-control grant, and
// recovers from slave deaths by requeueing their in-flight work and
// subdividing their generator shards. Every report carries a verdict per
// processed pair, and the master unions each accepted pair into its
// union-find.

// masterState tracks one slave's protocol position.
type masterState struct {
	generatorDone bool // last report said passive
	hasNextWork   bool // slave holds a batch whose results are pending
	idle          bool // parked with nothing to do; candidate for stop
	granted       int  // outstanding grant E: pairs the slave may still report
	dead          bool // rank failed; excluded from the protocol
	owes          int  // reports the slave will still send
	// inflight is the FIFO of dispatched batches not yet acknowledged by a
	// report's ackWork flag; when the slave dies they are requeued to the
	// survivors.
	inflight [][]pairgen.Pair
	// shards are the generator partitions this slave covers: its initial
	// one (part = rank-1, 1 of 1) plus any dead-slave shards it took over.
	// When the slave dies they are subdivided among the survivors.
	shards []shard
}

// grantE computes the paper's flow-control grant E = min(α·δ·batchsize,
// nfree/p) for one slave interaction.
//
//   - α (clamped to alphaMax) is the redundancy factor: reported pairs
//     per pair that survived same-cluster filtering. When the whole batch
//     was redundant the ratio is undefined; the cap is used directly rather
//     than the seed's unbounded raw batch length.
//   - δ = slaves/active spreads the generation load of finished slaves over
//     the rest.
//   - nfree must already account for every outstanding grant, so that the
//     sum of buffered pairs and pairs-in-flight can never exceed
//     WorkBufCap. The never-starve floor of 1 is likewise granted only
//     against genuinely free space.
func grantE(cfg Config, reported, added, active, slaves, p, nfree int) int {
	if nfree < 0 {
		nfree = 0
	}
	alpha := 1.0
	if added > 0 {
		alpha = float64(reported) / float64(added)
	} else if reported > 0 {
		alpha = alphaMax
	}
	if alpha > alphaMax {
		alpha = alphaMax
	}
	delta := float64(slaves) / float64(max(1, active))
	e := min(int(alpha*delta*float64(cfg.BatchSize)), nfree/p)
	if e < 1 && nfree > 0 {
		// Never starve an active generator entirely, or it could park
		// with pairs still unreported — but only within free space.
		e = 1
	}
	return e
}

// checkReportIDs range-checks the ids in slave s's report before any of them
// indexes the master's union-find. The report comes off the wire, where
// decodeReport cannot know the set, and a word of 2³¹ or more decodes to a
// negative id; as wire words both must fall below the set's EST or string
// count.
func checkReportIDs(s int, rep report, set *seq.SetS) error {
	ne, ns := uint32(set.NumESTs()), uint32(set.NumStrings())
	for _, r := range rep.results {
		for _, id := range [2]uint32{uint32(r.estI), uint32(r.estJ)} {
			if id >= ne {
				return fmt.Errorf("cluster: slave %d reported a verdict on EST %d of %d", s, id, ne)
			}
		}
	}
	for _, p := range rep.pairs {
		for _, id := range [2]uint32{uint32(p.S1), uint32(p.S2)} {
			if id >= ns {
				return fmt.Errorf("cluster: slave %d reported a pair on string %d of %d", s, id, ns)
			}
		}
	}
	return nil
}

func runMaster(set *seq.SetS, cfg Config, c *mp.Comm) (*Result, error) {
	pr := newProbes(cfg.Metrics)
	tw := cfg.Trace
	if tw != nil {
		tw.ProcessName(cfg.TracePID, cfg.traceProcess())
		traceThreadName(tw, cfg.TracePID, 0, "master")
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	tStart := c.Elapsed()
	owner, global, err := prologue(set, cfg, c)
	if err != nil {
		return nil, err
	}
	tPart := c.Elapsed() - tStart
	pr.observeBuckets(global, suffix.Loads(global, owner, c.Size()-1))
	if tw != nil {
		tw.Span(cfg.TracePID, 0, "partition", "gst", tStart, tPart)
	}

	res := &Result{}
	st := &res.Stats
	if cfg.FreshGen > 0 {
		var rebuilt int64
		for b, h := range global {
			if h > 0 && owner[b] >= 0 {
				rebuilt++
			}
		}
		st.Incremental.BucketsRebuilt = rebuilt
		st.Incremental.BucketsReused = nonEmptyBuckets(global) - rebuilt
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
	ck := newCheckpointer(cfg, set.NumESTs(), st, pr, c.Elapsed)

	slaves := c.Size() - 1
	p := c.Size()
	states := make([]masterState, c.Size())
	// Every slave's unsolicited first report carries up to bootstrapGrant
	// pairs; charge those grants up front so the WORKBUF bound holds from
	// the first message on.
	grantedTotal := 0
	for r := 1; r <= slaves; r++ {
		states[r].granted = bootstrapGrant(cfg, p)
		grantedTotal += states[r].granted
		states[r].owes = 1 // the unsolicited first report
		states[r].shards = []shard{{part: int32(r - 1), idx: 0, of: 1}}
	}

	var workbuf []pairgen.Pair
	head := 0
	// requeued holds pairs reclaimed from dead slaves' in-flight batches.
	// They drain ahead of WORKBUF and are deliberately not counted against
	// its occupancy: they already passed admission control once, and the
	// WorkBufHighWater ≤ WorkBufCap invariant is about admission.
	var requeued []pairgen.Pair
	// pendingShards are dead slaves' generator shards awaiting a survivor.
	var pendingShards []shard
	buffered := func() int { return len(workbuf) - head }
	compact := func() {
		if head > 0 && head >= len(workbuf)/2 {
			workbuf = append(workbuf[:0], workbuf[head:]...)
			head = 0
		}
	}

	// popBatch extracts up to BatchSize pairs whose ESTs are still in
	// different clusters (clusters may have merged since enqueue),
	// requeued recovery pairs first.
	popBatch := func() []pairgen.Pair {
		var out []pairgen.Pair
		keep := func(p pairgen.Pair) bool {
			i, j := p.ESTs()
			if cfg.SkipSameCluster && uf.Same(int32(i), int32(j)) {
				st.PairsSkipped++
				if pr != nil {
					pr.skipped.Inc()
				}
				return false
			}
			return true
		}
		for len(requeued) > 0 && len(out) < cfg.BatchSize {
			p := requeued[0]
			requeued = requeued[1:]
			if keep(p) {
				out = append(out, p)
			}
		}
		for head < len(workbuf) && len(out) < cfg.BatchSize {
			p := workbuf[head]
			head++
			if keep(p) {
				out = append(out, p)
			}
		}
		compact()
		return out
	}

	activeSlaves := func() int {
		a := 0
		for r := 1; r <= slaves; r++ {
			if !states[r].dead && !states[r].generatorDone {
				a++
			}
		}
		return a
	}

	// Wire messages are encoded into one reusable scratch buffer: the mp
	// ownership contract (copy-on-send) makes the reuse safe, so the
	// master's steady state allocates nothing per interaction.
	var wire []byte
	sendWork := func(to int, w work) error {
		wire = appendWork(wire[:0], w)
		return c.Send(to, tagWork, wire)
	}
	// dispatch sends a non-stop work message and records the protocol
	// consequences: one more report owed, and a non-empty batch joins the
	// slave's in-flight FIFO until a report acknowledges it.
	dispatch := func(to int, w work) error {
		if err := sendWork(to, w); err != nil {
			return err
		}
		if len(w.pairs) > 0 {
			states[to].inflight = append(states[to].inflight, w.pairs)
		}
		states[to].owes++
		states[to].idle = false
		return nil
	}

	grantFor := func(reported, added int) int {
		nfree := cfg.WorkBufCap - buffered() - grantedTotal
		return grantE(cfg, reported, added, activeSlaves(), slaves, p, nfree)
	}

	// done: no work buffered anywhere, no shard awaiting a survivor, and
	// every living slave is parked with no report outstanding.
	done := func() bool {
		if buffered() > 0 || len(requeued) > 0 || len(pendingShards) > 0 {
			return false
		}
		for r := 1; r <= slaves; r++ {
			if states[r].dead {
				continue
			}
			if states[r].owes > 0 || !states[r].idle {
				return false
			}
		}
		return true
	}

	// Surplus work re-activates parked slaves.
	reactivate := func() error {
		for r := 1; r <= slaves && buffered()+len(requeued) > 0; r++ {
			if states[r].dead || !states[r].idle {
				continue
			}
			batch := popBatch()
			if len(batch) == 0 {
				break
			}
			if err := dispatch(r, work{pairs: batch}); err != nil {
				return err
			}
		}
		return nil
	}

	// handleDeath recovers from slave s failing mid-protocol: reclaim its
	// outstanding grant, requeue its unacknowledged batches, and subdivide
	// its generator shards among the survivors, who rebuild them locally
	// and regenerate the remaining pairs. Regenerated pairs overlap work
	// the dead slave already reported; the same-cluster filter and the
	// idempotence of union-find merges absorb the duplicates, and the final
	// clusters match a failure-free run.
	handleDeath := func(s int) error {
		states[s].dead = true
		states[s].idle = false
		states[s].owes = 0
		reclaimed := int64(states[s].granted)
		grantedTotal -= states[s].granted
		states[s].granted = 0
		var requeuedNow int64
		for _, b := range states[s].inflight {
			requeued = append(requeued, b...)
			requeuedNow += int64(len(b))
		}
		states[s].inflight = nil
		st.Recovery.RanksLost++
		st.Recovery.GrantsReclaimed += reclaimed
		st.Recovery.PairsRequeued += requeuedNow

		var surv []int
		for r := 1; r <= slaves; r++ {
			if !states[r].dead {
				surv = append(surv, r)
			}
		}
		if len(surv) == 0 {
			return fmt.Errorf("cluster: all %d slaves failed; cannot recover", slaves)
		}
		var reassigned int64
		// A passive slave had generated and shipped every pair of its
		// shards before dying — nothing left to regenerate.
		if !states[s].generatorDone {
			k := int32(len(surv))
			for _, sh := range states[s].shards {
				for j := int32(0); j < k; j++ {
					pendingShards = append(pendingShards, shard{part: sh.part, idx: sh.idx + sh.of*j, of: sh.of * k})
				}
				reassigned += int64(k)
			}
			st.Recovery.ShardsReassigned += reassigned
		}
		states[s].shards = nil
		if pr != nil {
			pr.ranksLost.Inc()
			pr.grantsReclaimed.Add(reclaimed)
			pr.pairsRequeued.Add(requeuedNow)
			pr.shardsReassigned.Add(reassigned)
		}
		cfg.logger().Warn("slave rank lost; recovering",
			"rank", s, "survivors", len(surv), "grants_reclaimed", reclaimed,
			"pairs_requeued", requeuedNow, "shards_reassigned", reassigned)
		// Hand shards to parked survivors right away; busy ones collect
		// theirs attached to the reply to their next report.
		for _, r := range surv {
			if len(pendingShards) == 0 {
				break
			}
			if !states[r].idle || states[r].owes > 0 {
				continue
			}
			sh := pendingShards[0]
			pendingShards = pendingShards[1:]
			states[r].shards = append(states[r].shards, sh)
			states[r].generatorDone = false
			e := grantFor(0, 0)
			if err := dispatch(r, work{e: int32(e), recover: []shard{sh}}); err != nil {
				return err
			}
			states[r].granted = e
			grantedTotal += e
		}
		return reactivate()
	}

	// Master idle is measured over the dispatch loop only: recv wait
	// accumulated up to here is the prologue's collective synchronization
	// (the bucket-count allreduces), not a master-bottleneck signal.
	// Snapshotting the baseline makes MasterIdle exactly "time the dispatch
	// loop spent blocked on slave reports".
	rw0 := c.Stats().RecvWait

	// cumProcessed/cumAccepted mirror the slaves' counters from the
	// results stream for checkpointing; the authoritative per-rank totals
	// still arrive with the final phase reports.
	var cumProcessed, cumAccepted int64
	for {
		// Cancellation poll, once per slave interaction. The master is the
		// protocol's hub: returning the error here fails rank 0, which the
		// fail-stop transport propagates to every slave blocked on it, so
		// the whole parallel run unwinds without a stray goroutine left
		// holding the session's string set.
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		var msg mp.Msg
		if cfg.SlaveTimeout > 0 {
			msg, err = c.RecvTimeout(mp.AnySource, tagReport, cfg.SlaveTimeout)
			if errors.Is(err, mp.ErrTimeout) {
				return nil, fmt.Errorf("cluster: no slave report within SlaveTimeout %v; a slave is wedged", cfg.SlaveTimeout)
			}
		} else {
			msg, err = c.Recv(mp.AnySource, tagReport)
		}
		if err != nil {
			var rf *mp.RankFailedError
			if !cfg.Recover || !errors.As(err, &rf) || rf.Rank < 1 || rf.Rank > slaves || states[rf.Rank].dead {
				return nil, err
			}
			busy := c.Elapsed()
			if err := handleDeath(rf.Rank); err != nil {
				return nil, err
			}
			st.MasterBusy += c.Elapsed() - busy
			if done() {
				break
			}
			continue
		}
		busy := c.Elapsed()
		s := msg.From
		states[s].owes--
		rep, err := decodeReport(msg.Data)
		if err != nil {
			return nil, err
		}
		if err := checkReportIDs(s, rep, set); err != nil {
			return nil, err
		}
		states[s].generatorDone = rep.passive
		states[s].hasNextWork = rep.hasNextWork
		if rep.ackWork && len(states[s].inflight) > 0 {
			states[s].inflight = states[s].inflight[1:]
		}
		// The grant this report answers is consumed, whether or not the
		// slave used all of it.
		grant := states[s].granted
		grantedTotal -= grant
		states[s].granted = 0
		if len(rep.pairs) > grant {
			// Defensive: a slave exceeding its grant would silently break
			// the WORKBUF bound.
			return nil, fmt.Errorf("cluster: slave %d reported %d pairs, exceeding its grant of %d", s, len(rep.pairs), grant)
		}

		// Merge application is master busy time.
		for _, r := range rep.results {
			if r.accepted {
				cumAccepted++
				if uf.Union(int32(r.estI), int32(r.estJ)) {
					st.Merges++
					if pr != nil {
						pr.merges.Inc()
					}
				}
			}
		}
		cumProcessed += int64(len(rep.results))
		added := 0
		for _, pair := range rep.pairs {
			i, j := pair.ESTs()
			if cfg.SkipSameCluster && uf.Same(int32(i), int32(j)) {
				st.PairsSkipped++
				if pr != nil {
					pr.skipped.Inc()
				}
				continue
			}
			workbuf = append(workbuf, pair)
			added++
		}
		if b := buffered(); b > st.WorkBufHighWater {
			st.WorkBufHighWater = b
		}
		if pr != nil {
			b := int64(buffered())
			pr.workbuf.Set(b)
			pr.workbufHW.SetMax(b)
		}
		if tw != nil {
			tw.Counter(cfg.TracePID, "workbuf", c.Elapsed(), int64(buffered()))
		}
		if err := ck.maybe(uf, cumProcessed, cumAccepted, st.PairsSkipped, st.Merges, false); err != nil {
			return nil, err
		}

		// Reply: W pairs from WORKBUF plus the next pair request E, and a
		// pending recovery shard if one is waiting for a taker.
		batch := popBatch()
		var rec []shard
		if len(pendingShards) > 0 {
			rec = pendingShards[:1:1]
			pendingShards = pendingShards[1:]
			states[s].shards = append(states[s].shards, rec[0])
			states[s].generatorDone = false
		}
		e := 0
		if !states[s].generatorDone {
			e = grantFor(len(rep.pairs), added)
			if pr != nil && e > 0 {
				pr.grantE.Observe(int64(e))
			}
		}

		switch {
		case len(batch) > 0 || e > 0 || len(rec) > 0:
			if err := dispatch(s, work{pairs: batch, e: int32(e), recover: rec}); err != nil {
				return nil, err
			}
			states[s].granted = e
			grantedTotal += e
		case rep.hasNextWork || !states[s].generatorDone:
			// The slave either holds a batch whose results we still need,
			// or is an active generator that got no grant because every
			// free WORKBUF slot is pledged to peers. Reply empty in both
			// cases: the slave reports back (keep-alive), and by then
			// peer reports will have released grant space. Parking an
			// active generator here would strand its unreported pairs.
			if err := dispatch(s, work{}); err != nil {
				return nil, err
			}
		default:
			// Park the slave on the wait queue.
			states[s].idle = true
		}

		if err := reactivate(); err != nil {
			return nil, err
		}
		st.MasterBusy += c.Elapsed() - busy
		if done() {
			break
		}
	}

	// Final snapshot: a resumed run starts from the completed partition.
	if err := ck.maybe(uf, cumProcessed, cumAccepted, st.PairsSkipped, st.Merges, true); err != nil {
		return nil, err
	}

	for r := 1; r <= slaves; r++ {
		if states[r].dead {
			continue
		}
		if err := sendWork(r, work{stop: true}); err != nil {
			return nil, err
		}
	}

	// Collect per-rank phase reports and reduce to the Table 3 rows. The
	// collection is point-to-point (tagPhase) rather than a gather so dead
	// ranks can be skipped; they appear as zeroed "lost" rows.
	total := c.Elapsed() - tStart
	cs := c.Stats()
	st.MasterIdle = cs.RecvWait - rw0
	if pr != nil {
		pr.masterIdle.Set(int64(st.MasterIdle))
	}
	mine := phaseReport{partitionNs: int64(tPart), totalNs: int64(total), busyNs: int64(st.MasterBusy)}
	fillComm(&mine, cs)
	st.PerRank = make([]RankStats, 0, c.Size())
	addRow := func(r int, role string, ph phaseReport) {
		st.Phases.Partition = maxDur(st.Phases.Partition, time.Duration(ph.partitionNs))
		st.Phases.Construct = maxDur(st.Phases.Construct, time.Duration(ph.constructNs))
		st.Phases.Sort = maxDur(st.Phases.Sort, time.Duration(ph.sortNs))
		st.Phases.Align = maxDur(st.Phases.Align, time.Duration(ph.alignNs))
		st.Phases.Total = maxDur(st.Phases.Total, time.Duration(ph.totalNs))
		st.PairsGenerated += ph.generated
		st.PairsProcessed += ph.processed
		st.PairsAccepted += ph.accepted
		st.Incremental.StaleSuppressed += ph.stale
		st.PerRank = append(st.PerRank, RankStats{
			Rank: r, Role: role,
			Partition: time.Duration(ph.partitionNs),
			Construct: time.Duration(ph.constructNs),
			Sort:      time.Duration(ph.sortNs),
			Align:     time.Duration(ph.alignNs),
			Total:     time.Duration(ph.totalNs),
			MsgsSent:  ph.msgsSent, BytesSent: ph.bytesSent,
			MsgsRecv: ph.msgsRecv, BytesRecv: ph.bytesRecv,
			RecvWait:       time.Duration(ph.recvWaitNs),
			CollectiveOps:  ph.collOps,
			CollectiveTime: time.Duration(ph.collTimeNs),
			PairsGenerated: ph.generated,
			PairsProcessed: ph.processed,
			PairsAccepted:  ph.accepted,
			Busy:           time.Duration(ph.busyNs),
		})
	}
	addRow(0, "master", mine)
	for r := 1; r <= slaves; r++ {
		if states[r].dead {
			st.PerRank = append(st.PerRank, RankStats{Rank: r, Role: "lost"})
			continue
		}
		pm, err := c.Recv(r, tagPhase)
		if err != nil {
			var rf *mp.RankFailedError
			if cfg.Recover && errors.As(err, &rf) {
				// Died after its protocol work was complete; only its
				// stats are lost.
				st.PerRank = append(st.PerRank, RankStats{Rank: r, Role: "lost"})
				continue
			}
			return nil, err
		}
		ph, err := decodePhase(pm.Data)
		if err != nil {
			return nil, err
		}
		addRow(r, "slave", ph)
	}
	for _, rs := range st.PerRank {
		pr.recordComm(rs)
	}
	if cfg.FreshGen > 0 {
		st.Incremental.FreshPairs = st.PairsGenerated
		pr.recordIncremental(st.Incremental)
	}

	res.Labels = uf.Labels()
	res.NumClusters = uf.Count()
	return res, nil
}
