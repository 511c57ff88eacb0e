package mp

import (
	"sync"
	"testing"
	"time"
)

// trafficProgram exercises the allreduce plus deterministic point-to-point
// traffic, and snapshots each rank's CommStats at the end. The bytes each
// step puts on the wire are listed in TestCommStatsSimRealEquivalence.
func trafficProgram(stats []CommStats, mu *sync.Mutex) func(c *Comm) error {
	return func(c *Comm) error {
		r, p := c.Rank(), c.Size()

		// Point-to-point ring with rank-dependent payload sizes.
		payload := make([]byte, 16+8*r)
		if err := c.Send((r+1)%p, 7, payload); err != nil {
			return err
		}
		if _, err := c.Recv((r-1+p)%p, 7); err != nil {
			return err
		}

		if _, err := c.AllreduceSumInt64([]int64{int64(r)}); err != nil {
			return err
		}

		mu.Lock()
		stats[r] = c.Stats()
		mu.Unlock()
		return nil
	}
}

func runTraffic(t *testing.T, cfg Config) []CommStats {
	t.Helper()
	stats := make([]CommStats, cfg.Procs)
	var mu sync.Mutex
	if err := Run(cfg, trafficProgram(stats, &mu)); err != nil {
		t.Fatalf("mode %v: %v", cfg.Mode, err)
	}
	return stats
}

// TestCommStatsSimRealEquivalence asserts that the same program reports
// identical per-rank message/byte counts under the simulated and the real transport — the counters are a property of the
// program, not of the execution mode. (Times are mode-specific and excluded.)
func TestCommStatsSimRealEquivalence(t *testing.T) {
	const p = 5
	real := runTraffic(t, Config{Procs: p, Mode: ModeReal})
	simCfg := DefaultSimConfig(p)
	simCfg.MeasureCompute = false
	sim := runTraffic(t, simCfg)

	for r := 0; r < p; r++ {
		re, si := real[r], sim[r]
		if re.MsgsSent != si.MsgsSent || re.BytesSent != si.BytesSent {
			t.Errorf("rank %d sent: real %d msgs/%d B, sim %d msgs/%d B",
				r, re.MsgsSent, re.BytesSent, si.MsgsSent, si.BytesSent)
		}
		if re.MsgsRecv != si.MsgsRecv || re.BytesRecv != si.BytesRecv {
			t.Errorf("rank %d recv: real %d msgs/%d B, sim %d msgs/%d B",
				r, re.MsgsRecv, re.BytesRecv, si.MsgsRecv, si.BytesRecv)
		}
	}

	// The machine-wide traffic must be exactly what the program sent: the
	// ring sends 16+8r bytes from rank r, and the allreduce's reduce and
	// broadcast trees each move p-1 messages of one int64.
	wantMsgs := int64(p + 2*(p-1))
	wantBytes := int64(16*p+8*p*(p-1)/2) + int64(p-1)*(8+8)
	for _, run := range []struct {
		mode  string
		stats []CommStats
	}{{"real", real}, {"sim", sim}} {
		var sent, sentB, recv, recvB int64
		for _, st := range run.stats {
			sent, sentB = sent+st.MsgsSent, sentB+st.BytesSent
			recv, recvB = recv+st.MsgsRecv, recvB+st.BytesRecv
		}
		if sent != wantMsgs || recv != wantMsgs || sentB != wantBytes || recvB != wantBytes {
			t.Errorf("%s: sent %d msgs/%d B, recv %d msgs/%d B; want %d msgs/%d B both ways",
				run.mode, sent, sentB, recv, recvB, wantMsgs, wantBytes)
		}
	}
}

// TestRecvWaitRecorded checks both transports attribute blocked-receive time.
func TestRecvWaitRecorded(t *testing.T) {
	for _, mode := range []Mode{ModeReal, ModeSim} {
		cfg := Config{Procs: 2, Mode: mode}
		if mode == ModeSim {
			cfg = DefaultSimConfig(2)
			cfg.MeasureCompute = false
		}
		waits := make([]time.Duration, 2)
		err := Run(cfg, func(c *Comm) error {
			if c.Rank() == 1 {
				if mode == ModeSim {
					c.ChargeCompute(10 * time.Millisecond)
				} else {
					time.Sleep(10 * time.Millisecond)
				}
				return c.Send(0, 1, []byte("late"))
			}
			if _, err := c.Recv(1, 1); err != nil {
				return err
			}
			waits[0] = c.Stats().RecvWait
			return nil
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if waits[0] < 5*time.Millisecond {
			t.Errorf("mode %v: receiver RecvWait = %v, want >= 5ms", mode, waits[0])
		}
	}
}
