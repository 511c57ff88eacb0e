package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// floorInput returns ESTs and a configuration under which the run-ahead
// buffer is at its floor and the generator emits several times what the
// buffer holds, so a producer must block on a full buffer: 160 copies of one
// 50-base transcript, each with one substitution, in batches as large as the
// ⌈N/4⌉ bound.
func floorInput(t testing.TB) ([]seq.Sequence, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	base := make(seq.Sequence, 50)
	for i := range base {
		base[i] = seq.Code(rng.Intn(seq.AlphabetSize))
	}
	ests := make([]seq.Sequence, 160)
	n := int64(0)
	for i := range ests {
		e := base.Clone()
		at := rng.Intn(len(e))
		e[at] = (e[at] + seq.Code(1+rng.Intn(seq.AlphabetSize-1))) % seq.AlphabetSize
		ests[i] = e
		n += int64(len(e))
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	cfg.BatchSize = int((n + 3) / 4)
	if got := runAheadBatches(n, cfg.BatchSize); got != runAheadFloor {
		t.Fatalf("run-ahead bound %d batches, want the floor %d", got, runAheadFloor)
	}
	return ests, cfg
}

func TestRunAheadBatches(t *testing.T) {
	for _, c := range []struct {
		n          int64
		size, want int
	}{
		{0, 60, runAheadFloor},
		{1, 60, runAheadFloor},
		{4 * 60 * runAheadFloor, 60, runAheadFloor},
		{4*60*runAheadFloor + 1, 60, runAheadFloor + 1},
		{950_000, 60, 3959},
		{950_000, 1, 237_500},
	} {
		if got := runAheadBatches(c.n, c.size); got != c.want {
			t.Errorf("runAheadBatches(%d, %d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

// A run that snapshots after every batch writes as many snapshots with a
// producer running ahead as without, and the last one byte for byte.
func TestRunAheadCheckpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 60, 4, 13)
	run := func(workers int) (int64, []byte) {
		set, err := seq.NewSetS(b.ESTs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(1)
		cfg.Window, cfg.Psi = 6, 18
		cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), EveryReports: 1}
		res, err := runSequential(set, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		last, err := os.ReadFile(filepath.Join(cfg.Checkpoint.Dir, CheckpointFile))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Recovery.Checkpoints, last
	}
	wantN, want := run(1)
	if wantN < 3 {
		t.Fatalf("one worker wrote %d snapshots; the run exercises nothing", wantN)
	}
	for _, workers := range []int{2, 3, 8} {
		if n, got := run(workers); n != wantN || !bytes.Equal(got, want) {
			t.Errorf("workers=%d: %d snapshots, last equal %v; one worker wrote %d", workers, n, bytes.Equal(got, want), wantN)
		}
	}
}

// tripCtx trips to context.Canceled on its trip-th poll. On that poll it
// first looks for the run-ahead producer and, with wait set, waits until the
// producer is parked on its full buffer.
type tripCtx struct {
	context.Context
	trip int
	wait bool

	mu      sync.Mutex
	polls   int
	running bool // a producer was alive at the trip
	blocked bool // ... and parked in its select
}

func (c *tripCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls < c.trip {
		return nil
	}
	if c.polls == c.trip {
		c.running, c.blocked = producerState()
		for deadline := time.Now().Add(10 * time.Second); c.wait && !c.blocked && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			c.running, c.blocked = producerState()
		}
	}
	return context.Canceled
}

// producerState reports whether a run-ahead producer is alive, and whether
// it is parked in its select, waiting for the consumer to hand a batch back.
func producerState() (running, blocked bool) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "cluster.runAhead.produce") {
			header, _, _ := strings.Cut(g, "\n")
			return true, strings.Contains(header, "[select")
		}
	}
	return false, false
}

// A run canceled mid-drain, while its producer is blocked on a full buffer,
// fails with an error wrapping context.Canceled and leaves no goroutine; at
// one worker the same run starts no producer at all.
func TestRunAheadCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	ests, cfg := floorInput(t)
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		// Polls 1 and 2 guard the forest and the generator set-up, 3 the
		// first batch: trip on the poll before the second, with the consumer
		// holding the first and the producer out of batches.
		ctx := &tripCtx{Context: context.Background(), trip: 4, wait: workers > 1}
		cfg.Ctx = ctx
		if _, err := runSequential(set, cfg, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v, want one wrapping context.Canceled", workers, err)
		}
		if workers == 1 && ctx.running {
			t.Error("one worker started a producer")
		}
		if workers > 1 && !ctx.blocked {
			t.Errorf("workers=%d: the producer was never seen blocked on a full buffer", workers)
		}
	}
}
