package mp

// Tests for the message-ownership contract (copy-on-send) and
// the liveness features (bounded receives, rank-failure broadcast). The
// buffer-reuse stress test is the contract's lock-in: under the race
// detector it fails against a transport that enqueues the caller's slice
// by reference.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// runWithWatchdog fails the test if Run does not return within limit —
// the seed behavior for a dead peer was to hang forever.
func runWithWatchdog(t *testing.T, limit time.Duration, cfg Config, body func(c *Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(cfg, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("mp.Run still blocked after %v", limit)
		return nil
	}
}

// TestSendBufferReuseStress reuses one encode buffer across every Send while
// receivers concurrently read the delivered payloads. Run under -race this
// locks in copy-on-send: the seed transport aliased sender and receiver and
// raced the moment the buffer was rewritten.
func TestSendBufferReuseStress(t *testing.T) {
	const p = 4
	const rounds = 200
	bothModes(t, p, "reuse", func(c *Comm) error {
		buf := make([]byte, 64)
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		for i := 0; i < rounds; i++ {
			for k := range buf {
				buf[k] = byte(i + c.Rank())
			}
			if err := c.Send(next, 11, buf); err != nil {
				return err
			}
			// Immediately clobber the buffer: with copy-on-send the
			// receiver must still observe the original contents.
			for k := range buf {
				buf[k] = 0xEE
			}
			m, err := c.Recv(prev, 11)
			if err != nil {
				return err
			}
			want := byte(i + prev)
			for k, v := range m.Data {
				if v != want {
					return fmt.Errorf("round %d byte %d: got %#x want %#x (aliased send buffer)", i, k, v, want)
				}
			}
		}
		return nil
	})
}

func TestRecvTimeoutExpiresReal(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, Config{Procs: 1, Mode: ModeReal}, func(c *Comm) error {
		start := time.Now()
		_, err := c.RecvTimeout(0, 1, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		if time.Since(start) < 30*time.Millisecond {
			return errors.New("timed out too early")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutDeliversReal(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, Config{Procs: 2, Mode: ModeReal}, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(10 * time.Millisecond)
			return c.Send(1, 2, []byte("late but in time"))
		}
		m, err := c.RecvTimeout(0, 2, 5*time.Second)
		if err != nil {
			return err
		}
		if string(m.Data) != "late but in time" {
			return fmt.Errorf("bad payload %q", m.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// In ModeSim the timeout is virtual: the receiver's clock must land exactly
// on entry-clock + timeout, and a message whose virtual delivery would be
// later than the deadline must not be delivered by the bounded receive.
func TestRecvTimeoutSimVirtual(t *testing.T) {
	cfg := simTestConfig(2)
	times, err := RunTimed(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeCompute(50 * time.Millisecond)
			return c.Send(1, 3, nil)
		}
		_, err := c.RecvTimeout(0, 3, 10*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want virtual ErrTimeout, got %v", err)
		}
		if got := c.Elapsed(); got != 10*time.Millisecond {
			return fmt.Errorf("clock after timeout = %v, want 10ms", got)
		}
		// The unbounded retry must still get the message at its real
		// virtual delivery time.
		if _, err := c.Recv(0, 3); err != nil {
			return err
		}
		if got := c.Elapsed(); got < 50*time.Millisecond {
			return fmt.Errorf("delivered before virtual send time: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[1] < 50*time.Millisecond {
		t.Errorf("receiver clock %v", times[1])
	}
}

// A message deliverable before the deadline is preferred over timing out.
func TestRecvTimeoutSimDeliversEarlierMessage(t *testing.T) {
	err := Run(simTestConfig(2), func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeCompute(time.Millisecond)
			return c.Send(1, 3, []byte("x"))
		}
		m, err := c.RecvTimeout(0, 3, time.Hour)
		if err != nil {
			return err
		}
		if string(m.Data) != "x" {
			return fmt.Errorf("bad payload %q", m.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The core liveness fix: a rank erroring out must wake every peer blocked in
// an unbounded Recv. On the seed runtime this hung forever in ModeReal.
func TestRankFailureUnblocksRecv(t *testing.T) {
	bodyErr := errors.New("slave exploded")
	for _, mode := range []Mode{ModeReal, ModeSim} {
		cfg := simTestConfig(3)
		cfg.Mode = mode
		err := runWithWatchdog(t, 10*time.Second, cfg, func(c *Comm) error {
			if c.Rank() == 2 {
				return bodyErr
			}
			_, err := c.Recv(2, 7) // would block forever without the broadcast
			return err
		})
		if err == nil {
			t.Fatalf("mode %d: want error", mode)
		}
		// Run must surface the root cause, not the survivors' derived
		// ErrRankFailed errors.
		if !errors.Is(err, bodyErr) {
			t.Errorf("mode %d: got %v, want root cause %v", mode, err, bodyErr)
		}
	}
}

// A panic is broadcast the same way, in both modes.
func TestRankPanicUnblocksRecvReal(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, Config{Procs: 2, Mode: ModeReal}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		_, err := c.Recv(1, 1)
		return err
	})
	if err == nil {
		t.Fatal("want error from panicking rank")
	}
}

// Messages already delivered are still receivable after a peer failure;
// only a receive that would block is aborted.
func TestRankFailureAfterDeliveryReal(t *testing.T) {
	failErr := errors.New("post-send failure")
	err := runWithWatchdog(t, 10*time.Second, Config{Procs: 2, Mode: ModeReal}, func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 5, []byte("parting gift")); err != nil {
				return err
			}
			return failErr
		}
		// Wait until the failure is certainly recorded, then receive the
		// message that was delivered before it.
		for {
			if _, err := c.Probe(1, 99); err != nil {
				break // probing the dead rank reports its failure
			}
			time.Sleep(time.Millisecond)
		}
		m, err := c.Recv(1, 5)
		if err != nil {
			return fmt.Errorf("delivered message lost after failure: %w", err)
		}
		if string(m.Data) != "parting gift" {
			return fmt.Errorf("bad payload %q", m.Data)
		}
		return nil
	})
	if !errors.Is(err, failErr) {
		t.Fatalf("got %v, want %v", err, failErr)
	}
}
