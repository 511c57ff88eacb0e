package cluster

import (
	"context"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
	"pace/internal/vfs"
)

// workerCounts are the widths the sequential engine's contracts are held at:
// one worker inline, two, a count that divides nothing evenly, and more
// workers than small inputs have cores.
var workerCounts = []int{1, 2, 3, 8}

// tripCtx trips to context.Canceled on its trip-th poll and every poll
// after it; trip 0 never trips and only counts.
type tripCtx struct {
	context.Context
	trip int

	mu    sync.Mutex
	polls int
}

func (c *tripCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.trip > 0 && c.polls >= c.trip {
		return context.Canceled
	}
	return nil
}

// A run canceled at any of several poll indices — the forest, the set-up,
// the first batch, mid-drain, the last batch — fails with an error wrapping
// context.Canceled at every width, and leaves no worker running.
func TestSequentialCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 60, 4, 13)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	for _, workers := range workerCounts {
		// Each worker polls once per batch and once more to find its chunk
		// exhausted, so the count does not depend on scheduling.
		count := &tripCtx{Context: context.Background()}
		cfg.Ctx = count
		if _, err := runSequential(set, cfg, workers); err != nil {
			t.Fatal(err)
		}
		polls := count.polls
		if polls < 8 {
			t.Fatalf("workers=%d: %d polls; the run exercises nothing", workers, polls)
		}
		for _, trip := range []int{1, 2, 3, polls / 2, polls - 1, polls} {
			cfg.Ctx = &tripCtx{Context: context.Background(), trip: trip}
			if _, err := runSequential(set, cfg, workers); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d trip=%d of %d: error %v, want one wrapping context.Canceled", workers, trip, polls, err)
			}
		}
	}
}

// snapshotFS records every checkpoint renamed into place, in order.
type snapshotFS struct {
	vfs.FS
	mu    sync.Mutex
	snaps [][]byte
}

func (f *snapshotFS) Rename(oldpath, newpath string) error {
	data, err := os.ReadFile(oldpath)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.snaps = append(f.snaps, data)
	f.mu.Unlock()
	return f.FS.Rename(oldpath, newpath)
}

// refines reports whether every two elements fine puts together, coarse
// puts together too.
func refines(fine, coarse []int32) bool {
	to := make(map[int32]int32)
	for i, l := range fine {
		if c, ok := to[l]; ok && c != coarse[i] {
			return false
		}
		to[l] = coarse[i]
	}
	return true
}

// A run that snapshots after every batch, at every width, writes snapshots
// that each decode and refine the next, the last of them the run's own
// partition, and a run resumed from the first reproduces that partition.
func TestSequentialCheckpointsRefine(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := benchSet(t, 60, 4, 13)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	for _, workers := range workerCounts {
		fsys := &snapshotFS{FS: vfs.OS{}}
		ckCfg := cfg
		ckCfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), EveryReports: 1, FS: fsys}
		res, err := runSequential(set, ckCfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(fsys.snaps); n < 3 || int64(n) != res.Stats.Recovery.Checkpoints {
			t.Fatalf("workers=%d: %d snapshots recorded, %d counted", workers, n, res.Stats.Recovery.Checkpoints)
		}
		var prev []int32
		for i, data := range fsys.snaps {
			ck, err := decodeCheckpoint(data)
			if err != nil {
				t.Fatalf("workers=%d snapshot %d: %v", workers, i, err)
			}
			labels := ck.Labels()
			if prev != nil && !refines(prev, labels) {
				t.Fatalf("workers=%d: snapshot %d splits a cluster of snapshot %d", workers, i, i-1)
			}
			prev = labels
		}
		if !slices.Equal(prev, res.Labels) {
			t.Errorf("workers=%d: last snapshot's partition is not the result's", workers)
		}
		first, err := decodeCheckpoint(fsys.snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		resume := cfg
		resume.InitialLabels = first.Labels()
		again, err := runSequential(set, resume, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.Labels, res.Labels) {
			t.Errorf("workers=%d: resumed from the first snapshot, the partition differs", workers)
		}
	}
}
