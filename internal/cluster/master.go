package cluster

import (
	"errors"
	"fmt"

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
// union-find. Each union that joins two clusters is logged as a spanning
// edge, and every work message carries the edges its slave has not yet seen,
// for the slave's replica union-find.

// masterState tracks one slave's protocol position.
type masterState struct {
	generatorDone bool // last report said passive
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
	// edgesSent is how much of the master's spanning-edge log this slave's
	// work messages have carried.
	edgesSent int
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
	tw.ProcessName(cfg.TracePID, cfg.traceProcess())
	traceThreadName(tw, cfg.TracePID, 0, "master")
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
	tw.Span(cfg.TracePID, 0, "partition", "gst", tStart, tPart)

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
	uf, err := seededClusters(cfg, set.NumESTs(), st)
	if err != nil {
		return nil, err
	}
	m := &master{
		set: set, cfg: cfg, c: c, pr: pr, st: st, uf: uf,
		ck:     newCheckpointer(cfg, set.NumESTs(), st, c.Elapsed),
		slaves: c.Size() - 1,
		states: make([]masterState, c.Size()),
	}
	// Every slave's unsolicited first report carries up to bootstrapGrant
	// pairs; charge those grants up front so the WORKBUF bound holds from
	// the first message on.
	for r := 1; r <= m.slaves; r++ {
		m.states[r] = masterState{granted: bootstrapGrant(cfg, c.Size()), owes: 1, shards: []shard{{part: int32(r - 1), idx: 0, of: 1}}}
		m.granted += m.states[r].granted
	}

	// Master idle is measured over the dispatch loop only: recv wait
	// accumulated up to here is the prologue's collective synchronization
	// (the bucket-count allreduces), not a master-bottleneck signal.
	// Snapshotting the baseline makes MasterIdle exactly "time the dispatch
	// loop spent blocked on slave reports".
	rw0 := c.Stats().RecvWait
	for !m.done() {
		if err := m.step(); err != nil {
			return nil, err
		}
	}

	// Final snapshot: a resumed run starts from the completed partition.
	if err := m.checkpoint(true); err != nil {
		return nil, err
	}
	for r := 1; r <= m.slaves; r++ {
		if m.states[r].dead {
			continue
		}
		if err := m.send(r, work{stop: true}); err != nil {
			return nil, err
		}
	}

	total := c.Elapsed() - tStart
	cs := c.Stats()
	st.MasterIdle = cs.RecvWait - rw0
	pr.masterIdle.Set(int64(st.MasterIdle))
	mine := RankStats{Rank: 0, Role: "master", Partition: tPart, Total: total, PairsSkipped: m.skipped, Busy: st.MasterBusy}
	fillComm(&mine, cs)
	if err := m.collect(mine); err != nil {
		return nil, err
	}
	if cfg.FreshGen > 0 {
		st.Incremental.FreshPairs = st.PairsGenerated
		pr.recordIncremental(st.Incremental)
	}

	res.Labels = uf.Labels()
	res.NumClusters = uf.Count()
	return res, nil
}

// master is the master rank's protocol state, changed one slave event at a
// time by step.
type master struct {
	set    *seq.SetS
	cfg    Config
	c      *mp.Comm
	pr     *probes
	st     *Stats
	uf     *unionfind.UF
	ck     *checkpointer
	slaves int
	states []masterState
	// granted is the sum of the slaves' outstanding grants, all charged
	// against WORKBUF's free space.
	granted int
	// workbuf[head:] is WORKBUF.
	workbuf []pairgen.Pair
	head    int
	// requeued holds pairs reclaimed from dead slaves' in-flight batches.
	// They drain ahead of WORKBUF and are deliberately not counted against
	// its occupancy: they already passed admission control once, and the
	// WorkBufHighWater ≤ WorkBufCap invariant is about admission.
	requeued []pairgen.Pair
	// pendingShards are dead slaves' generator shards awaiting a survivor.
	pendingShards []shard
	// edges logs every accepted pair whose union joined two clusters: at
	// most n-1 entries over a run, each sent to every slave once.
	edges [][2]int32
	// wire is the scratch buffer work messages are encoded into: the mp
	// ownership contract (copy-on-send) makes the reuse safe, so the
	// master's steady state allocates nothing per interaction.
	wire []byte
	// skipped counts the pairs the master dropped as already joined;
	// processed and accepted mirror the slaves' counters from the verdict
	// stream for checkpointing (the authoritative per-rank totals arrive
	// with the final reports).
	skipped, processed, accepted int64
}

// step waits for the next slave event — a report or a slave's death — and
// handles it. The handling is master busy time.
func (m *master) step() error {
	// Cancellation poll, once per slave interaction. The master is the
	// protocol's hub: returning the error here fails rank 0, which the
	// fail-stop transport propagates to every slave blocked on it, so the
	// whole parallel run unwinds without a stray goroutine left holding the
	// session's string set.
	if err := m.cfg.ctxErr(); err != nil {
		return err
	}
	// A zero SlaveTimeout waits forever, so only an armed one expires.
	msg, err := m.c.RecvTimeout(mp.AnySource, tagReport, m.cfg.SlaveTimeout)
	if errors.Is(err, mp.ErrTimeout) {
		return fmt.Errorf("cluster: no slave report within SlaveTimeout %v; a slave is wedged", m.cfg.SlaveTimeout)
	}
	busy := m.c.Elapsed()
	var rf *mp.RankFailedError
	switch {
	case err == nil:
		err = m.onReport(msg)
	case errors.As(err, &rf) && rf.Rank >= 1 && rf.Rank <= m.slaves && !m.states[rf.Rank].dead:
		err = m.onDeath(rf.Rank)
	}
	m.st.MasterBusy += m.c.Elapsed() - busy
	return err
}

// onReport handles one slave report: it retires what the report answers,
// merges its verdicts, admits its pairs to WORKBUF and replies.
func (m *master) onReport(msg mp.Msg) error {
	s := msg.From
	ms := &m.states[s]
	ms.owes--
	rep, err := decodeReport(msg.Data)
	if err != nil {
		return err
	}
	if err := checkReportIDs(s, rep, m.set); err != nil {
		return err
	}
	ms.generatorDone = rep.passive
	if rep.ackWork && len(ms.inflight) > 0 {
		ms.inflight = ms.inflight[1:]
	}
	// The grant this report answers is consumed, whether or not the slave
	// used all of it.
	grant := ms.granted
	m.granted -= grant
	ms.granted = 0
	if len(rep.pairs) > grant {
		// Defensive: a slave exceeding its grant would silently break the
		// WORKBUF bound.
		return fmt.Errorf("cluster: slave %d reported %d pairs, exceeding its grant of %d", s, len(rep.pairs), grant)
	}
	m.merge(rep.results)
	added := m.admit(rep.pairs)
	if err := m.checkpoint(false); err != nil {
		return err
	}

	// Reply: W pairs from WORKBUF plus the next pair request E, and a
	// pending recovery shard if one is waiting for a taker.
	batch := m.popBatch()
	rec := m.takeShard(s)
	e := 0
	if !ms.generatorDone {
		e = m.grantFor(len(rep.pairs), added)
	}
	switch {
	case len(batch) > 0 || e > 0 || len(rec) > 0:
		err = m.dispatch(s, work{pairs: batch, e: int32(e), recover: rec})
	case rep.hasNextWork || !ms.generatorDone:
		// The slave either holds a batch whose results we still need, or
		// is an active generator that got no grant because every free
		// WORKBUF slot is pledged to peers. Reply empty in both cases: the
		// slave reports back (keep-alive), and by then peer reports will
		// have released grant space. Parking an active generator here
		// would strand its unreported pairs.
		err = m.dispatch(s, work{})
	default:
		// Park the slave on the wait queue.
		ms.idle = true
	}
	if err != nil {
		return err
	}
	return m.reactivate()
}

// merge unions each accepted verdict into the master's union-find, logging
// every union that joins two clusters as a spanning edge for the replicas.
func (m *master) merge(results []alignResult) {
	for _, r := range results {
		if !r.accepted {
			continue
		}
		m.accepted++
		if m.uf.Union(int32(r.estI), int32(r.estJ)) {
			m.st.Merges++
			if m.cfg.SkipSameCluster {
				m.edges = append(m.edges, [2]int32{int32(r.estI), int32(r.estJ)})
			}
		}
	}
	m.processed += int64(len(results))
}

// admit appends a report's pairs to WORKBUF, less those already joined, and
// returns how many it kept.
func (m *master) admit(pairs []pairgen.Pair) int {
	from := len(m.workbuf)
	var d int64
	m.workbuf, d = dropJoined(m.cfg, m.uf, append(m.workbuf, pairs...), from)
	m.skipped += d
	b := m.buffered()
	m.st.WorkBufHighWater = max(m.st.WorkBufHighWater, b)
	m.pr.workbufHW.SetMax(int64(b))
	m.cfg.Trace.Counter(m.cfg.TracePID, "workbuf", m.c.Elapsed(), int64(b))
	return len(m.workbuf) - from
}

func (m *master) buffered() int { return len(m.workbuf) - m.head }

func (m *master) checkpoint(force bool) error {
	return m.ck.maybe(m.uf, m.processed, m.accepted, m.skipped, m.st.Merges, force)
}

// popBatch takes up to BatchSize pairs whose ESTs are still in different
// clusters (clusters may have merged since admission), requeued recovery
// pairs first.
func (m *master) popBatch() []pairgen.Pair {
	var out []pairgen.Pair
	m.requeued = m.takeInto(&out, m.requeued)
	rest := m.takeInto(&out, m.workbuf[m.head:])
	m.head = len(m.workbuf) - len(rest)
	if m.head > 0 && m.head >= len(m.workbuf)/2 {
		m.workbuf = append(m.workbuf[:0], m.workbuf[m.head:]...)
		m.head = 0
	}
	return out
}

// takeInto moves pairs from the front of src to *out, dropping those already
// joined, until *out holds BatchSize pairs or src runs dry, and returns what
// is left of src.
func (m *master) takeInto(out *[]pairgen.Pair, src []pairgen.Pair) []pairgen.Pair {
	for len(src) > 0 && len(*out) < m.cfg.BatchSize {
		from := len(*out)
		k := min(m.cfg.BatchSize-from, len(src))
		var d int64
		*out, d = dropJoined(m.cfg, m.uf, append(*out, src[:k]...), from)
		src = src[k:]
		m.skipped += d
	}
	return src
}

// takeShard hands slave r the next shard awaiting a survivor, if any: r now
// covers it and is an active generator again.
func (m *master) takeShard(r int) []shard {
	if len(m.pendingShards) == 0 {
		return nil
	}
	sh := m.pendingShards[:1:1]
	m.pendingShards = m.pendingShards[1:]
	m.states[r].shards = append(m.states[r].shards, sh[0])
	m.states[r].generatorDone = false
	return sh
}

// grantFor is the grant E for a slave that reported `reported` pairs of which
// `added` were admitted, against the WORKBUF space neither buffered nor
// pledged to an outstanding grant.
func (m *master) grantFor(reported, added int) int {
	active := 0
	for r := 1; r <= m.slaves; r++ {
		if !m.states[r].dead && !m.states[r].generatorDone {
			active++
		}
	}
	nfree := m.cfg.WorkBufCap - m.buffered() - m.granted
	return grantE(m.cfg, reported, added, active, m.slaves, m.c.Size(), nfree)
}

// send encodes and sends a work message. Every one but stop carries the
// edges logged since the slave's previous one.
func (m *master) send(to int, w work) error {
	if !w.stop {
		w.edges = m.edges[m.states[to].edgesSent:]
		m.states[to].edgesSent = len(m.edges)
	}
	m.wire = appendWork(m.wire[:0], w)
	return m.c.Send(to, tagWork, m.wire)
}

// dispatch sends a non-stop work message and records the protocol
// consequences: one more report owed, the grant outstanding, and a non-empty
// batch in the slave's in-flight FIFO until a report acknowledges it.
func (m *master) dispatch(to int, w work) error {
	if err := m.send(to, w); err != nil {
		return err
	}
	ms := &m.states[to]
	if len(w.pairs) > 0 {
		ms.inflight = append(ms.inflight, w.pairs)
	}
	ms.owes++
	ms.idle = false
	ms.granted = int(w.e)
	m.granted += int(w.e)
	return nil
}

// reactivate hands surplus work to parked slaves.
func (m *master) reactivate() error {
	for r := 1; r <= m.slaves && m.buffered()+len(m.requeued) > 0; r++ {
		if m.states[r].dead || !m.states[r].idle {
			continue
		}
		batch := m.popBatch()
		if len(batch) == 0 {
			break
		}
		if err := m.dispatch(r, work{pairs: batch}); err != nil {
			return err
		}
	}
	return nil
}

// done: no work buffered anywhere, no shard awaiting a survivor, and every
// living slave is parked with no report outstanding.
func (m *master) done() bool {
	if m.buffered() > 0 || len(m.requeued) > 0 || len(m.pendingShards) > 0 {
		return false
	}
	for r := 1; r <= m.slaves; r++ {
		if ms := m.states[r]; !ms.dead && (ms.owes > 0 || !ms.idle) {
			return false
		}
	}
	return true
}

// onDeath recovers from slave s failing mid-protocol: reclaim its
// outstanding grant, requeue its unacknowledged batches, and subdivide its
// generator shards among the survivors, who rebuild them locally and
// regenerate the remaining pairs. Regenerated pairs overlap work the dead
// slave already reported; the same-cluster filter and the idempotence of
// union-find merges absorb the duplicates, and the final clusters match a
// failure-free run.
func (m *master) onDeath(s int) error {
	ms := &m.states[s]
	ms.dead = true
	ms.idle = false
	ms.owes = 0
	reclaimed := int64(ms.granted)
	m.granted -= ms.granted
	ms.granted = 0
	var requeuedNow int64
	for _, b := range ms.inflight {
		m.requeued = append(m.requeued, b...)
		requeuedNow += int64(len(b))
	}
	ms.inflight = nil
	rec := &m.st.Recovery
	rec.RanksLost++
	rec.GrantsReclaimed += reclaimed
	rec.PairsRequeued += requeuedNow

	var surv []int
	for r := 1; r <= m.slaves; r++ {
		if !m.states[r].dead {
			surv = append(surv, r)
		}
	}
	if len(surv) == 0 {
		return fmt.Errorf("cluster: all %d slaves failed; cannot recover", m.slaves)
	}
	var reassigned int64
	// A passive slave had generated and shipped every pair of its shards
	// before dying — nothing left to regenerate.
	if !ms.generatorDone {
		k := int32(len(surv))
		for _, sh := range ms.shards {
			for j := int32(0); j < k; j++ {
				m.pendingShards = append(m.pendingShards, shard{part: sh.part, idx: sh.idx + sh.of*j, of: sh.of * k})
			}
			reassigned += int64(k)
		}
		rec.ShardsReassigned += reassigned
	}
	ms.shards = nil
	m.cfg.logger().Warn("slave rank lost; recovering",
		"rank", s, "survivors", len(surv), "grants_reclaimed", reclaimed,
		"pairs_requeued", requeuedNow, "shards_reassigned", reassigned)
	// Hand shards to parked survivors right away; busy ones collect theirs
	// attached to the reply to their next report.
	for _, r := range surv {
		if !m.states[r].idle || m.states[r].owes > 0 {
			continue
		}
		sh := m.takeShard(r)
		if sh == nil {
			break
		}
		if err := m.dispatch(r, work{e: int32(m.grantFor(0, 0)), recover: sh}); err != nil {
			return err
		}
	}
	return m.reactivate()
}

// collect gathers every rank's final report into the run's Stats, the
// master's own row first. The reports travel point-to-point (tagPhase)
// rather than in a gather so dead ranks can be skipped; they appear as
// zeroed "lost" rows.
func (m *master) collect(mine RankStats) error {
	m.st.PerRank = make([]RankStats, 0, m.c.Size())
	m.st.addRank(mine)
	for r := 1; r <= m.slaves; r++ {
		row := RankStats{Rank: r, Role: "lost"}
		if !m.states[r].dead {
			pm, err := m.c.Recv(r, tagPhase)
			var rf *mp.RankFailedError
			if err == nil {
				row, err = decodePhase(pm.Data)
				row.Rank, row.Role = r, "slave"
			} else if errors.As(err, &rf) {
				// Died after its protocol work was complete; only its
				// stats are lost.
				err = nil
			}
			if err != nil {
				return err
			}
		}
		m.st.addRank(row)
	}
	return nil
}
