package mp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pace/internal/testutil"
)

// simTestConfig: deterministic simulation (no measured compute).
func simTestConfig(p int) Config {
	return Config{
		Procs:        p,
		Mode:         ModeSim,
		Latency:      100 * time.Microsecond,
		ByteTime:     10 * time.Nanosecond,
		SendOverhead: time.Microsecond,
	}
}

// RunTimed is Run plus the final per-rank clocks (virtual in ModeSim),
// whose maximum is the modeled parallel run-time.
func RunTimed(cfg Config, body func(c *Comm) error) ([]time.Duration, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mp: Procs must be >= 1, got %d", cfg.Procs)
	}
	times := make([]time.Duration, cfg.Procs)
	err := Run(cfg, func(c *Comm) error {
		defer func() { times[c.Rank()] = c.Elapsed() }()
		return body(c)
	})
	return times, err
}

// MaxTime returns the maximum of a set of per-rank clocks.
func MaxTime(ts []time.Duration) time.Duration {
	var m time.Duration
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

func bothModes(t *testing.T, p int, name string, body func(c *Comm) error) {
	t.Helper()
	for _, cfg := range []Config{{Procs: p, Mode: ModeReal}, simTestConfig(p)} {
		mode := "real"
		if cfg.Mode == ModeSim {
			mode = "sim"
		}
		t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			if err := Run(cfg, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(Config{Procs: 0}, func(*Comm) error { return nil }); err == nil {
		t.Error("zero procs must fail")
	}
	if err := Run(Config{Procs: 1, Mode: Mode(9)}, func(*Comm) error { return nil }); err == nil {
		t.Error("bad mode must fail")
	}
}

func TestPingPong(t *testing.T) {
	bothModes(t, 2, "pingpong", func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("ping")); err != nil {
				return err
			}
			m, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if string(m.Data) != "pong" || m.From != 1 {
				return fmt.Errorf("bad reply %+v", m)
			}
		} else {
			m, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(m.Data) != "ping" {
				return fmt.Errorf("bad ping %+v", m)
			}
			return c.Send(0, 8, []byte("pong"))
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	bothModes(t, 2, "tags", func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks tag 1 first.
			if err := c.Send(1, 2, []byte("second")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("first"))
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(m1.Data) != "first" || string(m2.Data) != "second" {
			return fmt.Errorf("tag matching broken: %q %q", m1.Data, m2.Data)
		}
		return nil
	})
}

func TestAnySource(t *testing.T) {
	const p = 5
	bothModes(t, p, "anysource", func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < p-1; i++ {
				m, err := c.Recv(AnySource, 3)
				if err != nil {
					return err
				}
				if seen[m.From] {
					return fmt.Errorf("duplicate sender %d", m.From)
				}
				seen[m.From] = true
			}
			return nil
		}
		return c.Send(0, 3, []byte{byte(c.Rank())})
	})
}

func TestFIFOPerSource(t *testing.T) {
	bothModes(t, 2, "fifo", func(c *Comm) error {
		const k = 20
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				// Vary message size so a naive earliest-delivery
				// policy would reorder; FIFO must hold anyway.
				data := make([]byte, 1+(k-i)*100)
				data[0] = byte(i)
				if err := c.Send(1, 5, data); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			m, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if int(m.Data[0]) != i {
				return fmt.Errorf("overtaking: got %d want %d", m.Data[0], i)
			}
		}
		return nil
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
		p := p
		bothModes(t, p, fmt.Sprintf("allreduce_p%d", p), func(c *Comm) error {
			vals := []int64{int64(c.Rank() + 1), int64(10 * c.Rank()), 1}
			got, err := c.AllreduceSumInt64(vals)
			if err != nil {
				return err
			}
			wantA := int64(p * (p + 1) / 2)
			wantB := int64(10 * p * (p - 1) / 2)
			if got[0] != wantA || got[1] != wantB || got[2] != int64(p) {
				return fmt.Errorf("rank %d: got %v want [%d %d %d]", c.Rank(), got, wantA, wantB, p)
			}
			return nil
		})
	}
}

func TestProbe(t *testing.T) {
	bothModes(t, 2, "probe", func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("x"))
		}
		// Poll until the message is visible, then receive it.
		for {
			ok, err := c.Probe(0, 9)
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		_, err := c.Recv(0, 9)
		return err
	})
}

func TestInvalidPeers(t *testing.T) {
	err := Run(Config{Procs: 1, Mode: ModeReal}, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to bad rank must fail")
		}
		if _, err := c.Recv(9, 0); err == nil {
			return errors.New("recv from bad rank must fail")
		}
		if _, err := c.Probe(-2, 0); err == nil {
			return errors.New("probe of bad rank must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	err := Run(simTestConfig(2), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 would block forever; the panic must surface instead of
		// hanging (rank 0 then deadlocks, which is also an error).
		_, err := c.Recv(1, 1)
		return err
	})
	if err == nil {
		t.Fatal("want error from panicking rank")
	}
}

func TestSimDeadlockDetected(t *testing.T) {
	err := Run(simTestConfig(2), func(c *Comm) error {
		_, err := c.Recv((c.Rank()+1)%2, 1) // both wait, nobody sends
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestSimVirtualTimeAdvances(t *testing.T) {
	cfg := simTestConfig(2)
	times, err := RunTimed(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeCompute(3 * time.Millisecond)
			return c.Send(1, 1, make([]byte, 1000))
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		_ = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver completes at sender compute (3ms) + latency (100µs) +
	// 1000 bytes * 10ns (10µs).
	want := 3*time.Millisecond + 100*time.Microsecond + 10*time.Microsecond
	if times[1] != want {
		t.Errorf("receiver clock %v want %v", times[1], want)
	}
	if times[0] != 3*time.Millisecond+cfg.SendOverhead {
		t.Errorf("sender clock %v", times[0])
	}
}

func TestSimProbeExactness(t *testing.T) {
	// Receiver probes at a virtual time before the message could have
	// been delivered: probe must say no; after charging past the delivery
	// time it must say yes.
	err := Run(simTestConfig(2), func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeCompute(time.Millisecond)
			return c.Send(1, 1, nil)
		}
		ok, err := c.Probe(0, 1)
		if err != nil {
			return err
		}
		if ok {
			return errors.New("probe at t≈0 must not see a message sent at t=1ms")
		}
		c.ChargeCompute(2 * time.Millisecond)
		ok, err = c.Probe(0, 1)
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("probe at t≈2ms must see the message")
		}
		_, err = c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimRecvWaitsForVirtualDelivery(t *testing.T) {
	times, err := RunTimed(simTestConfig(2), func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeCompute(5 * time.Millisecond)
			return c.Send(1, 1, nil)
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[1] < 5*time.Millisecond {
		t.Errorf("receiver finished at %v, before the send happened", times[1])
	}
}

func TestSimMeasuredCompute(t *testing.T) {
	cfg := simTestConfig(1)
	cfg.MeasureCompute = true
	times, err := RunTimed(cfg, func(c *Comm) error {
		deadline := time.Now().Add(20 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[0] < 15*time.Millisecond {
		t.Errorf("measured compute %v, expected ≈20ms", times[0])
	}
}

// A compute-bound workload split over p simulated ranks must show near-linear
// virtual speedup — the property the Figure 6a reproduction rests on.
func TestSimSpeedupShape(t *testing.T) {
	runtimeFor := func(p int) time.Duration {
		cfg := simTestConfig(p)
		times, err := RunTimed(cfg, func(c *Comm) error {
			c.ChargeCompute(time.Duration(1000/p) * time.Millisecond)
			_, err := c.AllreduceSumInt64([]int64{1})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return MaxTime(times)
	}
	t1, t4, t16 := runtimeFor(1), runtimeFor(4), runtimeFor(16)
	if ratio := float64(t1) / float64(t4); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("speedup at p=4: %.2f", ratio)
	}
	if ratio := float64(t1) / float64(t16); ratio < 12 || ratio > 18 {
		t.Errorf("speedup at p=16: %.2f", ratio)
	}
}

func TestEncodeDecodeInt64s(t *testing.T) {
	vals := []int64{0, -1, 1 << 40, -(1 << 50), 7}
	got := make([]int64, len(vals))
	if err := addInt64s(got, encodeInt64s(vals)); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("at %d: %d != %d", i, got[i], vals[i])
		}
	}
	if err := addInt64s(make([]int64, 1), make([]byte, 9)); err == nil {
		t.Error("ragged buffer must fail")
	}
	if err := addInt64s(make([]int64, 2), make([]byte, 8)); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime([]time.Duration{3, 9, 2}) != 9 {
		t.Error("MaxTime wrong")
	}
	if MaxTime(nil) != 0 {
		t.Error("empty MaxTime")
	}
}

func BenchmarkSimPingPong(b *testing.B) {
	cfg := simTestConfig(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(cfg, func(c *Comm) error {
			for k := 0; k < 100; k++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 1, nil); err != nil {
						return err
					}
					if _, err := c.Recv(1, 2); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(0, 1); err != nil {
						return err
					}
					if err := c.Send(0, 2, nil); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
