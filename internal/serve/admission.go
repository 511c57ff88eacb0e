package serve

import (
	"context"
	"errors"
	"sync"

	"pace/internal/telemetry"
)

// ErrBusy is returned when the admission queue is full: every grant is in
// service and every queue slot is taken. HTTP maps it to 429 so clients
// back off — the server never buffers unbounded work.
var ErrBusy = errors.New("serve: admission queue full")

// AdmissionConfig bounds concurrent batch work, generalizing the engine's
// WORKBUF grant accounting (PR 1) from pair buffers to HTTP requests: a
// request may run only while holding one of Grants grant slots, at most
// Queue requests may wait for a slot, and anything beyond that is rejected
// immediately with ErrBusy.
type AdmissionConfig struct {
	// Grants is the number of requests serviced concurrently (default 8).
	Grants int
	// Queue is the number of requests allowed to wait for a grant
	// (default 2×Grants).
	Queue int
}

func (c AdmissionConfig) grants() int {
	if c.Grants > 0 {
		return c.Grants
	}
	return 8
}

func (c AdmissionConfig) queue() int {
	if c.Queue > 0 {
		return c.Queue
	}
	return 2 * c.grants()
}

// Admission is the bounded admission queue. The invariant mirrors the
// WORKBUF bound: inService <= Grants and len(waiters) <= Queue at all
// times; Release hands its grant to the oldest waiter instead of freeing
// it, so grants never leak and FIFO order is preserved.
type Admission struct {
	mu        sync.Mutex
	grants    int
	queueCap  int
	inService int
	waiters   []chan struct{}

	highWater int
	admitted  int64
	rejected  int64

	// Live views of the accounting, set on every unlock so a request queued
	// inside Acquire shows while it waits; nil is a disabled sink.
	inServiceG, waitingG *telemetry.Gauge
	rejectedC            *telemetry.Counter
}

// NewAdmission returns an admission controller for the given bounds.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{grants: cfg.grants(), queueCap: cfg.queue()}
}

// observe attaches the live occupancy gauges and the rejection counter.
func (a *Admission) observe(inService, waiting *telemetry.Gauge, rejected *telemetry.Counter) {
	a.mu.Lock()
	a.inServiceG, a.waitingG, a.rejectedC = inService, waiting, rejected
	a.unlock()
}

// unlock publishes the occupancy gauges and releases mu.
func (a *Admission) unlock() {
	a.inServiceG.Set(int64(a.inService))
	a.waitingG.Set(int64(len(a.waiters)))
	a.mu.Unlock()
}

// Acquire obtains a grant, waiting in the bounded queue if none is free.
// It returns ErrBusy without waiting when the queue is full, or ctx.Err()
// if the context ends first. Every successful Acquire must be paired with
// exactly one Release.
func (a *Admission) Acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.inService < a.grants {
		a.inService++
		if a.inService > a.highWater {
			a.highWater = a.inService
		}
		a.admitted++
		a.unlock()
		return nil
	}
	if len(a.waiters) >= a.queueCap {
		a.rejected++
		a.rejectedC.Inc()
		a.unlock()
		return ErrBusy
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.unlock()

	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, c := range a.waiters {
			if c == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.unlock()
				return ctx.Err()
			}
		}
		a.unlock()
		// Release transferred the grant to us concurrently with
		// cancellation; give it back so it is not leaked.
		a.Release()
		return ctx.Err()
	}
}

// Release returns a grant. If a request is waiting, the grant transfers to
// the oldest waiter (inService unchanged); otherwise the slot frees up.
func (a *Admission) Release() {
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.admitted++
		a.unlock()
		close(ch)
		return
	}
	if a.inService > 0 {
		a.inService--
	}
	a.unlock()
}

// Idle reports whether no request holds or awaits a grant — the drain
// condition.
func (a *Admission) Idle() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inService == 0 && len(a.waiters) == 0
}

// AdmissionStats is a snapshot of the controller's accounting.
type AdmissionStats struct {
	// InService and Waiting are the instantaneous occupancy.
	InService, Waiting int
	// HighWater is the peak InService, provably <= Grants.
	HighWater int
	// Admitted and Rejected count Acquire outcomes.
	Admitted, Rejected int64
}

// Stats snapshots the accounting counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		InService: a.inService,
		Waiting:   len(a.waiters),
		HighWater: a.highWater,
		Admitted:  a.admitted,
		Rejected:  a.rejected,
	}
}
