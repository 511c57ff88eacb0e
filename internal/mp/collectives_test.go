package mp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestCommStatsCounting(t *testing.T) {
	bothModes(t, 2, "stats", func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			if err := c.Send(1, 1, make([]byte, 50)); err != nil {
				return err
			}
			st := c.Stats()
			if st.MsgsSent != 2 || st.BytesSent != 150 {
				return fmt.Errorf("sender stats: %+v", st)
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		st := c.Stats()
		if st.MsgsRecv != 2 || st.BytesRecv != 150 {
			return fmt.Errorf("receiver stats: %+v", st)
		}
		return nil
	})
}

// Cross-mode equivalence: a randomized deterministic message pattern must
// deliver identical data in real and simulated modes.
func TestCrossModeEquivalence(t *testing.T) {
	const p = 4
	const rounds = 30
	type key struct{ round, from, to int }

	runPattern := func(cfg Config) (map[key]byte, error) {
		got := make([]map[key]byte, p)
		for i := range got {
			got[i] = map[key]byte{}
		}
		err := Run(cfg, func(c *Comm) error {
			rng := rand.New(rand.NewSource(99)) // same schedule on all ranks
			for round := 0; round < rounds; round++ {
				from := rng.Intn(p)
				to := rng.Intn(p - 1)
				if to >= from {
					to++
				}
				payload := byte(round*7 + from)
				if c.Rank() == from {
					if err := c.Send(to, 5, []byte{payload}); err != nil {
						return err
					}
				}
				if c.Rank() == to {
					m, err := c.Recv(from, 5)
					if err != nil {
						return err
					}
					got[c.Rank()][key{round, from, to}] = m.Data[0]
				}
			}
			return nil
		})
		merged := map[key]byte{}
		for _, m := range got {
			for k, v := range m {
				merged[k] = v
			}
		}
		return merged, err
	}

	real, err := runPattern(Config{Procs: p, Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := runPattern(simTestConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(real) != len(sim) || len(real) != rounds {
		t.Fatalf("delivery counts: real=%d sim=%d want %d", len(real), len(sim), rounds)
	}
	for k, v := range real {
		if sim[k] != v {
			t.Fatalf("payload mismatch at %+v: real=%d sim=%d", k, v, sim[k])
		}
	}
}

// In simulated mode, bigger messages must take longer to deliver.
func TestSimBandwidthModel(t *testing.T) {
	recvTime := func(size int) time.Duration {
		cfg := simTestConfig(2)
		times, err := RunTimed(cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, make([]byte, size))
			}
			_, err := c.Recv(0, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return times[1]
	}
	small, big := recvTime(10), recvTime(1_000_000)
	if big <= small {
		t.Errorf("bandwidth model inactive: %v vs %v", small, big)
	}
	want := 100*time.Microsecond + 10*time.Millisecond // latency + 1MB * 10ns
	if big != want {
		t.Errorf("1MB delivery %v want %v", big, want)
	}
}

// In simulated mode an allreduce is a reduce up a binomial tree followed by
// a broadcast down one, each ceil(log2 p) hops deep. No rank can leave before
// the reduce's hop count × latency of virtual time has passed, and the last
// broadcast leaf needs both trees' hops.
func TestSimAllreduceLatencyModel(t *testing.T) {
	const p = 16
	cfg := simTestConfig(p) // latency 100µs
	times, err := RunTimed(cfg, func(c *Comm) error {
		_, err := c.AllreduceSumInt64([]int64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for m := 1; m < p; m <<= 1 {
		rounds++
	}
	floor := time.Duration(rounds) * cfg.Latency
	for r, tm := range times {
		if tm < floor {
			t.Errorf("rank %d finished at %v, below the %d-round latency floor %v",
				r, tm, rounds, floor)
		}
	}
	if got, want := MaxTime(times), 2*floor; got < want {
		t.Errorf("allreduce completed in %v, below the reduce+bcast depth %v", got, want)
	}
}
