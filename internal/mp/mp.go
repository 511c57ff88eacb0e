// Package mp is a message-passing runtime — the substrate standing in for
// the MPI / IBM SP environment the paper's software ran on. It provides
// ranks, tagged point-to-point messaging with any-source receives and
// probing, and the one collective the engine's prologue needs:
// AllreduceSumInt64, the paper's "parallel summation algorithm in O(log p)
// communication steps".
//
// Two execution modes share one API:
//
//   - ModeReal: every rank is a goroutine and messages move through in-memory
//     mailboxes; elapsed time is wall-clock. This exercises genuine
//     concurrency on multicore hosts.
//
//   - ModeSim: a conservative discrete-event simulation of a distributed-
//     memory machine. Ranks execute one at a time under a global scheduler
//     that always advances the rank with the minimum virtual clock;
//     communication costs follow a latency + bytes/bandwidth model, and
//     compute sections are charged by measuring their actual execution time.
//     This reproduces parallel run-time *shape* (speedups, component
//     breakdowns) faithfully even on a single-core host, which is how the
//     paper's 8–128-processor curves are regenerated here.
//
// Message ownership: Send copies the payload before it is enqueued, so a
// caller keeps full ownership of its buffer and may reuse it immediately;
// the receiver owns Msg.Data exclusively.
//
// Liveness: a rank whose body errors or panics is recorded as failed, so a
// peer whose receive depends on it (a receive from that specific rank, or an
// any-source receive with no other traffic) returns a *RankFailedError
// (wrapping ErrRankFailed) instead of hanging. Failure is per rank: traffic
// among survivors is unaffected, and messages a dead rank sent before dying
// remain receivable. RecvTimeout bounds an individual receive with
// ErrTimeout, in virtual time under ModeSim.
//
// Delivery is reliable and fail-stop, as under MPI: a message to a live rank
// is delivered exactly once. Config.Fault injects the two faults the engine
// must survive, a sticky rank crash and a delayed send, for chaos testing —
// see FaultPlan.
package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// AnySource matches messages from any rank (the paper's master receives
// result/pair messages from whichever slave finishes first).
const AnySource = -1

// Mode selects the execution model.
type Mode int

const (
	// ModeReal runs ranks concurrently with wall-clock timing.
	ModeReal Mode = iota
	// ModeSim runs a discrete-event simulation with virtual time.
	ModeSim
)

// Config parameterizes a run.
type Config struct {
	// Procs is the number of ranks p.
	Procs int
	// Mode selects real or simulated execution.
	Mode Mode

	// Latency is the per-message delivery latency (ModeSim).
	Latency time.Duration
	// ByteTime is the per-byte transfer time, i.e. 1/bandwidth (ModeSim).
	ByteTime time.Duration
	// SendOverhead is the CPU cost charged to a sender per message
	// (ModeSim).
	SendOverhead time.Duration
	// MeasureCompute charges wall-clock compute time between communication
	// calls to the virtual clock (ModeSim). Disable for deterministic
	// tests that charge time explicitly via ChargeCompute.
	MeasureCompute bool

	// Fault, when non-nil, wraps the transport in the deterministic
	// fault-injection layer (rank crash after N ops, delayed sends). Used by
	// chaos tests and the pace -chaos flag; nil in production runs.
	Fault *FaultPlan
}

// DefaultSimConfig models a modest cluster interconnect: 50µs latency,
// ~100 MB/s effective bandwidth.
func DefaultSimConfig(p int) Config {
	return Config{
		Procs:          p,
		Mode:           ModeSim,
		Latency:        50 * time.Microsecond,
		ByteTime:       10 * time.Nanosecond,
		SendOverhead:   5 * time.Microsecond,
		MeasureCompute: true,
	}
}

// Msg is one delivered message. Data is owned exclusively by the receiver:
// the runtime never aliases it with a sender's buffer (see Comm.Send).
type Msg struct {
	From, To int
	Tag      int
	Data     []byte
}

// ErrDeadlock is returned from communication calls when the simulated
// machine has no runnable rank and no deliverable message.
var ErrDeadlock = errors.New("mp: deadlock: all ranks blocked")

// ErrTimeout is returned from a bounded receive that expired before a
// matching message arrived.
var ErrTimeout = errors.New("mp: receive timed out")

// ErrRankFailed is returned from blocking communication calls on the
// surviving ranks after some rank's body returned an error or panicked:
// failures are propagated per rank so no peer hangs waiting for a dead one.
// The concrete error is a *RankFailedError identifying which rank died.
var ErrRankFailed = errors.New("mp: peer rank failed")

// ErrInjectedCrash is the sticky error every operation of a rank returns
// after the fault plan crashed it. The rank's body is expected to propagate
// it, turning the injected crash into an ordinary rank failure.
var ErrInjectedCrash = errors.New("mp: injected rank crash")

// RankFailedError reports the death of a specific peer. It wraps
// ErrRankFailed, so errors.Is(err, ErrRankFailed) still matches; callers that
// need the identity of the dead rank (the cluster master's recovery path)
// extract it with errors.As.
type RankFailedError struct {
	// Rank is the rank that failed.
	Rank int
	// Cause is the failed rank's own error.
	Cause error
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mp: rank %d failed: %v", e.Rank, e.Cause)
}

// Unwrap makes the error match ErrRankFailed.
func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// transport is the mode-specific engine under a Comm.
type transport interface {
	begin(rank int) error
	send(from, to, tag int, data []byte) error
	recv(rank, from, tag int, timeout time.Duration) (Msg, error)
	probe(rank, from, tag int) (bool, error)
	elapsed(rank int) time.Duration
	charge(rank int, d time.Duration)
	fail(rank int, err error)
	finish(rank int)
	stats(rank int) CommStats
}

// CommStats counts a rank's point-to-point traffic (the allreduce's
// included, since it is built from point-to-point sends) plus receive-wait
// time.
type CommStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64

	// RecvWait is the total time this rank spent blocked inside receives —
	// virtual time under ModeSim, wall time under ModeReal. For the paper's
	// master it is idle time; for slaves it measures load imbalance.
	RecvWait time.Duration
}

// add records one message.
func (s *CommStats) addSent(n int) {
	s.MsgsSent++
	s.BytesSent += int64(n)
}

func (s *CommStats) addRecv(n int) {
	s.MsgsRecv++
	s.BytesRecv += int64(n)
}

// Comm is a rank's endpoint, analogous to an MPI communicator + rank.
type Comm struct {
	rank int
	size int
	tr   transport
}

// Rank returns this endpoint's rank in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Send delivers data to rank `to` with the given tag. It is buffered
// ("eager" in MPI terms): it never blocks on the receiver.
//
// Ownership contract: Send copies data before it is enqueued, so the caller
// keeps full ownership of its buffer and may overwrite or reuse it the
// moment Send returns — even in ModeReal where the receiver runs
// concurrently. The receiver in turn owns Msg.Data exclusively.
func (c *Comm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mp: send to invalid rank %d", to)
	}
	var cp []byte
	if len(data) > 0 {
		cp = make([]byte, len(data))
		copy(cp, data)
	}
	return c.tr.send(c.rank, to, tag, cp)
}

// Recv blocks until a message with the given tag arrives from rank `from`
// (or from anyone if from == AnySource). Tags match exactly.
func (c *Comm) Recv(from, tag int) (Msg, error) {
	return c.RecvTimeout(from, tag, 0)
}

// RecvTimeout is Recv with an explicit per-call bound: when timeout > 0 and
// no matching message arrives in time (virtual time in ModeSim), it returns
// an error wrapping ErrTimeout. timeout <= 0 blocks indefinitely.
func (c *Comm) RecvTimeout(from, tag int, timeout time.Duration) (Msg, error) {
	if from != AnySource && (from < 0 || from >= c.size) {
		return Msg{}, fmt.Errorf("mp: recv from invalid rank %d", from)
	}
	return c.tr.recv(c.rank, from, tag, timeout)
}

// Probe reports whether a matching message is already available; it never
// blocks. In ModeSim the answer is exact with respect to virtual time.
func (c *Comm) Probe(from, tag int) (bool, error) {
	if from != AnySource && (from < 0 || from >= c.size) {
		return false, fmt.Errorf("mp: probe of invalid rank %d", from)
	}
	return c.tr.probe(c.rank, from, tag)
}

// Elapsed returns this rank's clock: wall time in ModeReal, virtual time in
// ModeSim.
func (c *Comm) Elapsed() time.Duration { return c.tr.elapsed(c.rank) }

// ChargeCompute adds d of artificial compute time to this rank's virtual
// clock (no-op in ModeReal). It exists for deterministic simulation tests
// and for modeling work not actually executed.
func (c *Comm) ChargeCompute(d time.Duration) { c.tr.charge(c.rank, d) }

// Stats returns this rank's traffic counters and receive-wait time so far.
func (c *Comm) Stats() CommStats { return c.tr.stats(c.rank) }

// The allreduce's tags live in their own space so they can never match
// application receives.
const (
	tagBcast  = 1 << 28
	tagReduce = 1<<28 + 1
)

// AllreduceSumInt64 sums each position of vals across ranks and returns the
// total on every rank — the paper's parallel summation in 2·O(log p)
// communication steps: a binomial-tree reduce to rank 0, then a
// binomial-tree broadcast from it. The sum accumulates in vals itself, so
// the caller passes a vector it no longer needs; the result is vals.
func (c *Comm) AllreduceSumInt64(vals []int64) ([]int64, error) {
	// Reduce: a rank sums its children's vectors until it reaches its
	// lowest set bit, then sends to the parent that bit names; rank 0
	// sums them all. On leaving the loop, mask is that bit (the parent
	// the broadcast arrives from) or, on rank 0, the tree's span.
	mask := 1
	for ; mask < c.size; mask <<= 1 {
		if c.rank&mask != 0 {
			// The encoded vector is freshly allocated and never touched
			// again, so it goes to the transport without the Send copy.
			if err := c.tr.send(c.rank, c.rank^mask, tagReduce, encodeInt64s(vals)); err != nil {
				return nil, err
			}
			break
		}
		if src := c.rank | mask; src < c.size {
			m, err := c.Recv(src, tagReduce)
			if err != nil {
				return nil, err
			}
			if err := addInt64s(vals, m.Data); err != nil {
				return nil, err
			}
		}
	}
	// Broadcast: the total flows back down the same tree.
	var buf []byte
	if c.rank == 0 {
		buf = encodeInt64s(vals)
	} else {
		m, err := c.Recv(c.rank^mask, tagBcast)
		if err != nil {
			return nil, err
		}
		buf = m.Data
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if c.rank+mask < c.size {
			// Send copies: each child owns its Msg.Data, and buf goes to
			// several children.
			if err := c.Send(c.rank+mask, tagBcast, buf); err != nil {
				return nil, err
			}
		}
	}
	if c.rank != 0 {
		// vals holds this rank's subtree sum; the total replaces it.
		clear(vals)
		if err := addInt64s(vals, buf); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// encodeInt64s packs a vector little-endian.
func encodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// addInt64s adds a vector packed by encodeInt64s into acc, position by
// position; b must hold exactly len(acc) values.
func addInt64s(acc []int64, b []byte) error {
	if len(b) != 8*len(acc) {
		return fmt.Errorf("mp: allreduce length mismatch: %d bytes for %d values", len(b), len(acc))
	}
	for i := range acc {
		acc[i] += int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// Run executes body on every rank under the configured mode and returns the
// first error any rank produced. It blocks until all ranks finish.
//
// Liveness: when a rank's body returns an error or panics, the failure is
// broadcast through the transport so that every peer blocked in a receive
// is woken with an error wrapping ErrRankFailed instead of hanging forever.
// Run reports the root-cause error (the failing rank's own error) in
// preference to the derived ErrRankFailed errors of the survivors.
func Run(cfg Config, body func(c *Comm) error) error {
	errs, err := RunRanks(cfg, body)
	if err != nil {
		return err
	}
	return FirstError(errs)
}

// RunRanks is Run exposing the full per-rank error vector instead of the
// aggregated root cause. Fault-tolerant callers (the cluster engine's
// slave-failure recovery) need the distinction between "the master failed"
// and "the master completed while some slaves died": Run cannot express it.
// The returned error is non-nil only for configuration problems, in which
// case no rank ran.
func RunRanks(cfg Config, body func(c *Comm) error) ([]error, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mp: Procs must be >= 1, got %d", cfg.Procs)
	}
	var tr transport
	switch cfg.Mode {
	case ModeReal:
		tr = newRealTransport(cfg.Procs)
	case ModeSim:
		tr = newSimTransport(cfg)
	default:
		return nil, fmt.Errorf("mp: unknown mode %d", cfg.Mode)
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
		tr = newFaultTransport(tr, cfg)
	}

	errs := make([]error, cfg.Procs)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Procs; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{rank: rank, size: cfg.Procs, tr: tr}
			var err error
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("mp: rank %d panicked: %v", rank, rec)
				}
				errs[rank] = err
				if err != nil {
					tr.fail(rank, err)
				}
				tr.finish(rank)
			}()
			if err = tr.begin(rank); err != nil {
				return
			}
			err = body(c)
		}(r)
	}
	wg.Wait()
	return errs, nil
}

// FirstError aggregates a per-rank error vector the way Run reports it: the
// first root-cause error (one not derived from a peer's failure) wins;
// otherwise the first derived ErrRankFailed error; nil when all ranks
// succeeded.
func FirstError(errs []error) error {
	var derived error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrRankFailed) {
			return err
		}
		if derived == nil {
			derived = err
		}
	}
	return derived
}
