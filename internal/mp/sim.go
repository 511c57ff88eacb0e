package mp

import (
	"fmt"
	"sync"
	"time"
)

// simTransport is a conservative discrete-event simulation of a
// distributed-memory message-passing machine.
//
// Exactly one rank executes at any moment. Ranks park in an "arena" at every
// communication call; the scheduler always releases the parked rank whose
// operation has the minimum virtual timestamp (receives become eligible only
// once a matching message exists, with timestamp max(rank clock, message
// delivery time)). Because the releasing rule is min-clock-first, a Probe at
// virtual time T is exact: no rank with a smaller clock remains that could
// still produce a message delivered at or before T.
//
// Compute sections between communication calls run for real and their wall
// time is charged to the rank's virtual clock —
// meaningful even on a single-core host precisely because only one rank ever
// runs at a time.
type simTransport struct {
	cfg Config
	mu  sync.Mutex

	ranks   []*simRank
	running int   // rank currently computing, or -1; guarded by mu
	dead    error // guarded by mu
}

// wakeAll releases every parked rank (machine-wide death).
//
// Caller holds t.mu.
func (t *simTransport) wakeAll() {
	for _, rk := range t.ranks {
		rk.cond.Signal()
	}
}

const (
	phaseComputing = iota
	phaseArena
	phaseDone
)

type simMsg struct {
	Msg
	deliver time.Duration
}

type simRank struct {
	id        int
	cond      *sync.Cond // signaled when this rank is chosen (or the machine dies)
	clock     time.Duration
	phase     int
	resumedAt time.Time

	// Arena operation descriptor.
	isRecv   bool
	waitFrom int
	waitTag  int
	chosen   bool
	// hasDeadline marks a bounded receive; deadline is the virtual time at
	// which it expires (clock at entry + timeout).
	hasDeadline bool
	deadline    time.Duration

	// failed is this rank's own error once its body failed; failedAt is the
	// virtual time of death, so peers observe the failure no earlier than
	// it happened (causality is preserved in virtual time). notified[d]
	// records that this rank's any-source receives already reported dead
	// rank d once.
	failed   error
	failedAt time.Duration
	notified []bool

	// Scheduling-key cache. A parked rank's keyOf value can only change
	// when the rank re-parks with a new descriptor, a message lands in its
	// mailbox, or some rank fails (all of which clear keyValid) — its own
	// clock is frozen while parked. Without the cache, schedule() rescans
	// every mailbox on every communication call, which is O(p·mailbox) per
	// op and dominates sim runs beyond a few hundred ranks.
	keyValid  bool
	cachedKey time.Duration
	cachedOK  bool

	mailbox []simMsg
	traffic CommStats
}

func newSimTransport(cfg Config) *simTransport {
	t := &simTransport{cfg: cfg, running: -1}
	t.ranks = make([]*simRank, cfg.Procs)
	for i := range t.ranks {
		t.ranks[i] = &simRank{id: i, phase: phaseArena, notified: make([]bool, cfg.Procs)}
		// Per-rank wakeups: a shared Cond would broadcast every release to
		// all p parked goroutines (a thundering herd that dominates large-p
		// runs); signaling only the chosen rank wakes exactly one.
		t.ranks[i].cond = sync.NewCond(&t.mu)
	}
	return t
}

// stopClock charges the elapsed compute time of a currently-computing rank.
//
// Caller holds t.mu.
func (t *simTransport) stopClock(rk *simRank) {
	if rk.phase == phaseComputing && t.cfg.MeasureCompute {
		//pacelint:allow walltime MeasureCompute bridges real compute time into the virtual clock
		rk.clock += time.Since(rk.resumedAt)
	}
}

// firstMatch returns the first matching message in arrival order (per-source
// FIFO, the MPI non-overtaking guarantee).
func firstMatch(rk *simRank) (int, *simMsg) {
	for i := range rk.mailbox {
		m := &rk.mailbox[i]
		if m.Tag == rk.waitTag && (rk.waitFrom == AnySource || m.From == rk.waitFrom) {
			return i, m
		}
	}
	return -1, nil
}

// failureCandidate returns the dead rank a blocked receive on rk should
// report, with the virtual time of the notification (no earlier than the
// death, no earlier than the receiver's own clock). A specific dead source
// is sticky; for AnySource each dead peer is reported once (earliest death
// first), turning sticky when every peer is dead.
//
// Caller holds t.mu.
func (t *simTransport) failureCandidate(rk *simRank) (int, time.Duration, bool) {
	if !rk.isRecv {
		return 0, 0, false
	}
	best := -1
	var bestAt time.Duration
	if rk.waitFrom != AnySource {
		src := t.ranks[rk.waitFrom]
		if rk.waitFrom == rk.id || src.failed == nil {
			return 0, 0, false
		}
		best, bestAt = rk.waitFrom, src.failedAt
	} else {
		firstDead, alive := -1, 0
		for d, src := range t.ranks {
			if d == rk.id {
				continue
			}
			if src.failed == nil {
				alive++
				continue
			}
			if firstDead == -1 {
				firstDead = d
			}
			if rk.notified[d] {
				continue
			}
			if best == -1 || src.failedAt < bestAt {
				best, bestAt = d, src.failedAt
			}
		}
		if best == -1 && alive == 0 && firstDead != -1 {
			// Every peer is dead and all were already reported: nothing
			// can ever arrive, so the error becomes sticky.
			best, bestAt = firstDead, t.ranks[firstDead].failedAt
		}
		if best == -1 {
			return 0, 0, false
		}
	}
	if rk.clock > bestAt {
		bestAt = rk.clock
	}
	return best, bestAt, true
}

// keyOf computes a parked rank's scheduling timestamp. A bounded receive is
// always eligible: at the earlier of its message-availability time and its
// virtual deadline (at which it will report a timeout). A matching message
// takes precedence over a peer-failure notification; a receive with neither
// becomes eligible at the failure-notification time.
//
// Caller holds t.mu.
func (t *simTransport) keyOf(rk *simRank) (time.Duration, bool) {
	if !rk.isRecv {
		return rk.clock, true
	}
	if _, m := firstMatch(rk); m != nil {
		key := rk.clock
		if m.deliver > key {
			key = m.deliver
		}
		if rk.hasDeadline && rk.deadline < key {
			key = rk.deadline
		}
		return key, true
	}
	if _, fkey, ok := t.failureCandidate(rk); ok {
		if rk.hasDeadline && rk.deadline < fkey {
			fkey = rk.deadline
		}
		return fkey, true
	}
	if rk.hasDeadline {
		return rk.deadline, true
	}
	return 0, false
}

// schedule releases the eligible parked rank with the minimum timestamp.
// A no-op while some rank is computing.
//
// Caller holds t.mu.
func (t *simTransport) schedule() {
	if t.running != -1 || t.dead != nil {
		return
	}
	best := -1
	var bestKey time.Duration
	arena := 0
	for i, rk := range t.ranks {
		if rk.phase != phaseArena {
			continue
		}
		arena++
		if rk.chosen {
			return // someone is already released and about to run
		}
		if !rk.keyValid {
			rk.cachedKey, rk.cachedOK = t.keyOf(rk)
			rk.keyValid = true
		}
		key, ok := rk.cachedKey, rk.cachedOK
		if !ok {
			continue
		}
		if best == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	if best == -1 {
		if arena > 0 {
			t.dead = ErrDeadlock
			t.wakeAll()
		}
		return
	}
	t.ranks[best].chosen = true
	t.ranks[best].cond.Signal()
}

// enter parks rank r in the arena with the given operation descriptor and
// blocks until the scheduler releases it. On a nil return the caller holds
// mu and may execute its operation (an error return leaves mu released).
// timeout > 0 arms a virtual-time deadline on a receive.
func (t *simTransport) enter(r int, isRecv bool, from, tag int, timeout time.Duration) error {
	t.mu.Lock()
	if dead := t.dead; dead != nil {
		t.mu.Unlock()
		return dead
	}
	rk := t.ranks[r]
	t.stopClock(rk)
	rk.phase = phaseArena
	rk.isRecv = isRecv
	rk.waitFrom, rk.waitTag = from, tag
	rk.hasDeadline = isRecv && timeout > 0
	if rk.hasDeadline {
		rk.deadline = rk.clock + timeout
	}
	rk.chosen = false
	rk.keyValid = false
	if t.running == r {
		t.running = -1
	}
	t.schedule()
	for !rk.chosen && t.dead == nil {
		rk.cond.Wait()
	}
	if dead := t.dead; dead != nil {
		t.mu.Unlock()
		return dead
	}
	return nil
}

// leave resumes compute for rank r after its operation. Caller holds t.mu;
// leave releases it.
func (t *simTransport) leave(r int) {
	rk := t.ranks[r]
	rk.phase = phaseComputing
	rk.chosen = false
	t.running = r
	//pacelint:allow walltime MeasureCompute bridges real compute time into the virtual clock
	rk.resumedAt = time.Now()
	t.mu.Unlock()
}

// begin gates the start of a rank's body so that ranks execute one at a
// time from virtual time zero.
func (t *simTransport) begin(r int) error {
	t.mu.Lock()
	rk := t.ranks[r]
	rk.isRecv = false
	rk.hasDeadline = false
	rk.chosen = false
	rk.keyValid = false
	rk.phase = phaseArena
	t.schedule()
	for !rk.chosen && t.dead == nil {
		rk.cond.Wait()
	}
	if dead := t.dead; dead != nil {
		t.mu.Unlock()
		return dead
	}
	t.leave(r)
	return nil
}

func (t *simTransport) send(from, to, tag int, data []byte) error {
	if err := t.enter(from, false, 0, 0, 0); err != nil {
		return err
	}
	rk := t.ranks[from]
	deliver := rk.clock + t.cfg.Latency + time.Duration(len(data))*t.cfg.ByteTime
	t.ranks[to].mailbox = append(t.ranks[to].mailbox, simMsg{
		Msg:     Msg{From: from, To: to, Tag: tag, Data: data},
		deliver: deliver,
	})
	t.ranks[to].keyValid = false
	rk.clock += t.cfg.SendOverhead
	rk.traffic.addSent(len(data))
	t.leave(from)
	return nil
}

func (t *simTransport) recv(rank, from, tag int, timeout time.Duration) (Msg, error) {
	if err := t.enter(rank, true, from, tag, timeout); err != nil {
		return Msg{}, err
	}
	rk := t.ranks[rank]
	i, m := firstMatch(rk)
	if m != nil {
		key := rk.clock
		if m.deliver > key {
			key = m.deliver
		}
		if !rk.hasDeadline || key <= rk.deadline {
			msg := m.Msg
			// The virtual-clock advance to the delivery time is the time
			// this rank spent blocked waiting for the message.
			rk.traffic.RecvWait += key - rk.clock
			rk.clock = key
			rk.hasDeadline = false
			rk.mailbox = append(rk.mailbox[:i], rk.mailbox[i+1:]...)
			rk.traffic.addRecv(len(msg.Data))
			t.leave(rank)
			return msg, nil
		}
	}
	// No deliverable message: a peer-failure notification is next in line
	// (bounded receives prefer an earlier deadline below).
	if d, fkey, ok := t.failureCandidate(rk); ok && (!rk.hasDeadline || fkey <= rk.deadline) {
		if rk.waitFrom == AnySource {
			rk.notified[d] = true
		}
		if fkey > rk.clock {
			rk.traffic.RecvWait += fkey - rk.clock
			rk.clock = fkey
		}
		rk.hasDeadline = false
		cause := t.ranks[d].failed
		t.leave(rank)
		return Msg{}, &RankFailedError{Rank: d, Cause: cause}
	}
	if !rk.hasDeadline {
		// Cannot happen: eligibility implies a match or a failure, and all
		// other ranks are parked between scheduling and wake-up.
		t.mu.Unlock()
		panic("mp: released receiver has no matching message")
	}
	// Virtual deadline reached before any message could be delivered.
	if rk.deadline > rk.clock {
		rk.traffic.RecvWait += rk.deadline - rk.clock
		rk.clock = rk.deadline
	}
	rk.hasDeadline = false
	t.leave(rank)
	return Msg{}, fmt.Errorf("mp: rank %d recv(from %d, tag %d) after %v: %w",
		rank, from, tag, timeout, ErrTimeout)
}

func (t *simTransport) probe(rank, from, tag int) (bool, error) {
	if err := t.enter(rank, false, 0, 0, 0); err != nil {
		return false, err
	}
	rk := t.ranks[rank]
	saveFrom, saveTag := rk.waitFrom, rk.waitTag
	rk.waitFrom, rk.waitTag = from, tag
	_, m := firstMatch(rk)
	rk.waitFrom, rk.waitTag = saveFrom, saveTag
	ok := m != nil && m.deliver <= rk.clock
	// Charge a minimum cost so that probe loops always advance virtual
	// time (otherwise a polling rank would stay at the minimum clock and
	// starve the rest of the machine).
	cost := t.cfg.SendOverhead
	if cost <= 0 {
		cost = 100 * time.Nanosecond
	}
	rk.clock += cost
	// Mirror the real transport: probing a specific dead source with no
	// message left reports its failure; any-source probes stay silent.
	var failErr error
	if m == nil && from != AnySource && from != rank {
		if src := t.ranks[from]; src.failed != nil && src.failedAt <= rk.clock {
			failErr = &RankFailedError{Rank: from, Cause: src.failed}
		}
	}
	t.leave(rank)
	if failErr != nil {
		return false, failErr
	}
	return ok, nil
}

func (t *simTransport) elapsed(rank int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	rk := t.ranks[rank]
	d := rk.clock
	if rk.phase == phaseComputing && t.cfg.MeasureCompute {
		//pacelint:allow walltime MeasureCompute bridges real compute time into the virtual clock
		d += time.Since(rk.resumedAt)
	}
	return d
}

func (t *simTransport) charge(rank int, d time.Duration) {
	t.mu.Lock()
	t.ranks[rank].clock += d
	t.mu.Unlock()
}

func (t *simTransport) stats(rank int) CommStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ranks[rank].traffic
}

// fail records one rank's death at its current virtual time. Peers observe
// it through failureCandidate — per rank, not machine-wide — once the
// scheduler runs again (the dying rank's finish() follows immediately and
// reschedules).
func (t *simTransport) fail(rank int, err error) {
	t.mu.Lock()
	rk := t.ranks[rank]
	if rk.failed == nil {
		rk.failed = err
		at := rk.clock
		if rk.phase == phaseComputing && t.cfg.MeasureCompute {
			//pacelint:allow walltime MeasureCompute bridges real compute time into the virtual clock
			at += time.Since(rk.resumedAt)
		}
		rk.failedAt = at
		// Failure notifications feed every parked receiver's key.
		for _, peer := range t.ranks {
			peer.keyValid = false
		}
	}
	t.mu.Unlock()
}

func (t *simTransport) finish(rank int) {
	t.mu.Lock()
	rk := t.ranks[rank]
	t.stopClock(rk)
	rk.phase = phaseDone
	if t.running == rank {
		t.running = -1
	}
	t.schedule()
	t.mu.Unlock()
}
