package mp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultPlan is a deterministic fault-injection schedule. It wraps the real
// or simulated transport (Config.Fault) and perturbs operations according to
// per-rank seeded RNGs, so a given (plan, program) pair always injects the
// same faults in the same places on a rank's operation sequence — the
// property that makes chaos tests reproducible.
//
// Crash semantics are fail-stop: once a rank's matching-operation count
// reaches CrashAfter, that operation and every later one on the rank return
// ErrInjectedCrash. The rank's body is expected to propagate the error, at
// which point the runtime records the rank as failed and peers observe an
// ordinary *RankFailedError.
//
// Delivery stays reliable: a delayed send arrives late, never lost or twice,
// because the engine's protocol (like the paper's, on MPI) assumes exactly
// that of a live rank.
type FaultPlan struct {
	// Seed derives the per-rank RNG streams (rank index is mixed in).
	Seed int64

	// CrashRank / CrashAfter / CrashTag schedule a sticky crash: rank
	// CrashRank fails on its CrashAfter-th send or receive whose tag
	// matches CrashTag (CrashTag <= 0 matches every tag). CrashAfter == 0
	// disables crashing. Counting only tagged operations lets a test place
	// the crash at a protocol position ("after the 3rd report") instead of
	// a raw op index.
	CrashRank  int
	CrashAfter int
	CrashTag   int

	// DelayProb, in [0, 1], stalls the sender for Delay before a send
	// (virtual time under ModeSim).
	DelayProb float64

	// Delay is the injected latency for delayed sends; 0 derives 1ms.
	Delay time.Duration
}

// Validate checks the plan.
func (p *FaultPlan) Validate() error {
	if p.DelayProb < 0 || p.DelayProb > 1 {
		return fmt.Errorf("mp: fault plan DelayProb %v out of [0,1]", p.DelayProb)
	}
	if p.CrashAfter < 0 {
		return fmt.Errorf("mp: fault plan CrashAfter must be >= 0")
	}
	if p.Delay < 0 {
		return fmt.Errorf("mp: fault plan Delay must be >= 0")
	}
	return nil
}

func (p *FaultPlan) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return time.Millisecond
}

// faultTransport decorates a transport with the plan. Per-rank state (RNG,
// op counters) means each rank's fault sequence depends only on its own
// operation order, which is deterministic for a deterministic program even
// under ModeReal's arbitrary interleavings.
type faultTransport struct {
	inner transport
	plan  *FaultPlan
	mode  Mode

	mu       sync.Mutex
	rngs     []*rand.Rand
	crashOps []int
	crashed  []bool
}

func newFaultTransport(inner transport, cfg Config) *faultTransport {
	t := &faultTransport{
		inner: inner, plan: cfg.Fault, mode: cfg.Mode,
		rngs:     make([]*rand.Rand, cfg.Procs),
		crashOps: make([]int, cfg.Procs),
		crashed:  make([]bool, cfg.Procs),
	}
	for r := range t.rngs {
		t.rngs[r] = rand.New(rand.NewSource(cfg.Fault.Seed + int64(r)*0x9E3779B9))
	}
	return t
}

// crashCheck counts a matching operation against the crash schedule and
// returns the sticky ErrInjectedCrash once the rank is dead.
func (t *faultTransport) crashCheck(rank, tag int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.crashed[rank] {
		return fmt.Errorf("mp: rank %d is crashed: %w", rank, ErrInjectedCrash)
	}
	p := t.plan
	if p.CrashAfter <= 0 || rank != p.CrashRank {
		return nil
	}
	if p.CrashTag > 0 && tag != p.CrashTag {
		return nil
	}
	t.crashOps[rank]++
	if t.crashOps[rank] < p.CrashAfter {
		return nil
	}
	t.crashed[rank] = true
	return fmt.Errorf("mp: rank %d crashed at tagged op %d: %w", rank, t.crashOps[rank], ErrInjectedCrash)
}

func (t *faultTransport) send(from, to, tag int, data []byte) error {
	if err := t.crashCheck(from, tag); err != nil {
		return err
	}
	if p := t.plan.DelayProb; p > 0 {
		// The draw is under the lock; a rank's stream depends only on its
		// own send order, so the schedule is reproducible.
		t.mu.Lock()
		delay := t.rngs[from].Float64() < p
		t.mu.Unlock()
		if delay {
			if t.mode == ModeSim {
				t.inner.charge(from, t.plan.delay())
			} else {
				//pacelint:allow walltime ModeReal delay injection stalls the goroutine for real
				time.Sleep(t.plan.delay())
			}
		}
	}
	return t.inner.send(from, to, tag, data)
}

func (t *faultTransport) recv(rank, from, tag int, timeout time.Duration) (Msg, error) {
	if err := t.crashCheck(rank, tag); err != nil {
		return Msg{}, err
	}
	return t.inner.recv(rank, from, tag, timeout)
}

// probe does not count against the crash schedule (probes are polled in
// loops, which would make CrashAfter meaningless), but a crashed rank stays
// crashed for probes too.
func (t *faultTransport) probe(rank, from, tag int) (bool, error) {
	t.mu.Lock()
	dead := t.crashed[rank]
	t.mu.Unlock()
	if dead {
		return false, fmt.Errorf("mp: rank %d is crashed: %w", rank, ErrInjectedCrash)
	}
	return t.inner.probe(rank, from, tag)
}

func (t *faultTransport) begin(rank int) error             { return t.inner.begin(rank) }
func (t *faultTransport) elapsed(rank int) time.Duration   { return t.inner.elapsed(rank) }
func (t *faultTransport) charge(rank int, d time.Duration) { t.inner.charge(rank, d) }
func (t *faultTransport) fail(rank int, err error)         { t.inner.fail(rank, err) }
func (t *faultTransport) finish(rank int)                  { t.inner.finish(rank) }
func (t *faultTransport) stats(rank int) CommStats         { return t.inner.stats(rank) }
