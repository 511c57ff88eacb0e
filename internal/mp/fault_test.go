package mp

// Tests for the deterministic fault-injection transport.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestFaultCrashDeterministic: the crash fires on the scheduled tagged op,
// the crashed rank's later ops stay dead, and two runs with the same plan
// behave identically.
func TestFaultCrashDeterministic(t *testing.T) {
	for _, mode := range []Mode{ModeReal, ModeSim} {
		name := "real"
		if mode == ModeSim {
			name = "sim"
		}
		t.Run(name, func(t *testing.T) {
			runOnce := func() (int, error) {
				cfg := simTestConfig(2)
				cfg.Mode = mode
				cfg.Fault = &FaultPlan{Seed: 42, CrashRank: 1, CrashAfter: 3, CrashTag: 7}
				delivered := 0
				err := runWithWatchdog(t, 10*time.Second, cfg, func(c *Comm) error {
					if c.Rank() == 1 {
						for i := 0; i < 10; i++ {
							if err := c.Send(0, 7, []byte{byte(i)}); err != nil {
								return err
							}
						}
						return nil
					}
					for {
						m, err := c.Recv(1, 7)
						if err != nil {
							return expectPeerFailure(err)
						}
						if int(m.Data[0]) != delivered {
							return fmt.Errorf("out-of-order delivery %d at %d", m.Data[0], delivered)
						}
						delivered++
					}
				})
				return delivered, err
			}
			d1, err1 := runOnce()
			d2, err2 := runOnce()
			if !errors.Is(err1, ErrInjectedCrash) {
				t.Fatalf("want ErrInjectedCrash root cause, got %v", err1)
			}
			if d1 != 2 {
				t.Errorf("crash after 3rd tagged send should deliver 2 messages, got %d", d1)
			}
			if d1 != d2 || !errors.Is(err2, ErrInjectedCrash) {
				t.Errorf("non-deterministic: run1 (%d, %v) vs run2 (%d, %v)", d1, err1, d2, err2)
			}
		})
	}
}

// TestFaultDelayChargesVirtualTime: a delayed send pushes the receiver's
// virtual delivery time out by the injected delay.
func TestFaultDelayChargesVirtualTime(t *testing.T) {
	cfg := simTestConfig(2)
	cfg.Fault = &FaultPlan{Seed: 1, DelayProb: 1, Delay: 10 * time.Millisecond}
	err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, []byte("slow"))
		}
		if _, err := c.Recv(0, 3); err != nil {
			return err
		}
		if got := c.Elapsed(); got < 10*time.Millisecond {
			return fmt.Errorf("delivery at %v, want >= injected delay", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanValidation: malformed plans are rejected before any rank runs.
func TestFaultPlanValidation(t *testing.T) {
	cfg := Config{Procs: 1, Mode: ModeReal, Fault: &FaultPlan{DelayProb: 1.5}}
	if err := Run(cfg, func(*Comm) error { return nil }); err == nil {
		t.Error("DelayProb > 1 must fail validation")
	}
	cfg.Fault = &FaultPlan{CrashAfter: -1}
	if err := Run(cfg, func(*Comm) error { return nil }); err == nil {
		t.Error("negative CrashAfter must fail validation")
	}
}
