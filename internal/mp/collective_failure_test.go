package mp

// The allreduce must unblock with an error wrapping ErrRankFailed when a
// participating rank dies mid-collective, in both modes. The mechanism is cascade unblocking: the rank directly
// blocked on the dead peer errors out, its own failure is recorded, and the
// next rank in the tree observes that, until no one is left hanging.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// runCollectiveFailure runs body on 4 ranks with deadRank dying immediately,
// in both modes, and asserts the run terminates with the root cause.
func runCollectiveFailure(t *testing.T, deadRank int, body func(c *Comm) error) {
	t.Helper()
	bodyErr := errors.New("injected body failure")
	for _, mode := range []Mode{ModeReal, ModeSim} {
		name := "real"
		if mode == ModeSim {
			name = "sim"
		}
		t.Run(name, func(t *testing.T) {
			cfg := simTestConfig(4)
			cfg.Mode = mode
			err := runWithWatchdog(t, 10*time.Second, cfg, func(c *Comm) error {
				if c.Rank() == deadRank {
					return bodyErr
				}
				return body(c)
			})
			if !errors.Is(err, bodyErr) {
				t.Fatalf("want root cause %v, got %v", bodyErr, err)
			}
		})
	}
}

// expectPeerFailure checks a survivor's collective error wraps ErrRankFailed
// and propagates it: the survivor must itself be recorded as failed so the
// cascade reaches ranks blocked on *it* (Run prefers the dead rank's root
// cause over these derived errors).
func expectPeerFailure(err error) error {
	if err == nil {
		return errors.New("collective succeeded despite dead rank")
	}
	if !errors.Is(err, ErrRankFailed) {
		return fmt.Errorf("collective error does not wrap ErrRankFailed: %w", err)
	}
	return err
}

func TestAllreduceSumInt64UnblocksOnRankFailure(t *testing.T) {
	// The broadcast half needs the root's total, which needs every rank, so
	// every survivor must observe the failure — the engine's prologue
	// histogram sum relies on this to fail cleanly instead of hanging. Kill
	// an inner tree node, then the root, whose leaves only send before
	// they wait on the broadcast.
	for _, dead := range []int{2, 0} {
		runCollectiveFailure(t, dead, func(c *Comm) error {
			_, err := c.AllreduceSumInt64([]int64{int64(c.Rank()), 1})
			return expectPeerFailure(err)
		})
	}
}

// A point-to-point receive from a specific dead rank reports the failure
// with the rank's identity attached (the recovery path's key requirement).
func TestRankFailedErrorCarriesRank(t *testing.T) {
	bodyErr := errors.New("slave exploded")
	for _, mode := range []Mode{ModeReal, ModeSim} {
		cfg := simTestConfig(3)
		cfg.Mode = mode
		err := runWithWatchdog(t, 10*time.Second, cfg, func(c *Comm) error {
			if c.Rank() == 2 {
				return bodyErr
			}
			_, err := c.Recv(2, 7)
			var rf *RankFailedError
			if !errors.As(err, &rf) {
				return errors.New("want *RankFailedError")
			}
			if rf.Rank != 2 {
				return errors.New("wrong dead rank identified")
			}
			return nil
		})
		if !errors.Is(err, bodyErr) {
			t.Fatalf("mode %d: got %v, want %v", mode, err, bodyErr)
		}
	}
}

// An any-source receive reports each dead peer exactly once, while traffic
// from survivors keeps flowing — the master's protocol depends on both.
func TestAnySourceNotifiesOncePerDeadRank(t *testing.T) {
	bodyErr := errors.New("one slave down")
	for _, mode := range []Mode{ModeReal, ModeSim} {
		cfg := simTestConfig(3)
		cfg.Mode = mode
		err := runWithWatchdog(t, 10*time.Second, cfg, func(c *Comm) error {
			switch c.Rank() {
			case 1:
				return bodyErr
			case 2:
				// Survivor: wait for the master's ping, then answer.
				if _, err := c.Recv(0, 1); err != nil {
					return err
				}
				return c.Send(0, 2, []byte("alive"))
			}
			// Master: the first blocked any-source receive reports rank 1
			// exactly once; afterwards survivor traffic still flows.
			var rf *RankFailedError
			_, err := c.Recv(AnySource, 2)
			if !errors.As(err, &rf) || rf.Rank != 1 {
				return errors.New("first recv should report dead rank 1")
			}
			if err := c.Send(2, 1, nil); err != nil {
				return err
			}
			m, err := c.Recv(AnySource, 2)
			if err != nil {
				return err // must NOT re-report rank 1
			}
			if string(m.Data) != "alive" || m.From != 2 {
				return errors.New("survivor message corrupted")
			}
			return nil
		})
		if !errors.Is(err, bodyErr) {
			t.Fatalf("mode %d: got %v, want %v", mode, err, bodyErr)
		}
	}
}
