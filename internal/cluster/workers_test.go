package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
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
		ckCfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), Interval: time.Nanosecond, FS: fsys}
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

// rankWorkers gives the sequential engine every core, shares the cores among
// the slaves of the real transport, and gives a simulated rank one.
func TestRankWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs          int
		mode           mp.Mode
		cores, workers int
	}{
		{1, mp.ModeReal, 3, 3},
		{2, mp.ModeReal, 8, 8},
		{3, mp.ModeReal, 8, 4},
		{5, mp.ModeReal, 2, 1},
		{4, mp.ModeSim, 8, 1},
	} {
		runtime.GOMAXPROCS(c.cores)
		cfg := DefaultConfig(c.procs)
		cfg.MP.Mode = c.mode
		if got := rankWorkers(cfg); got != c.workers {
			t.Errorf("p=%d mode=%d on %d cores: %d workers, want %d", c.procs, c.mode, c.cores, got, c.workers)
		}
	}
}

// A slave on more than one core keeps the sequential partition and pair
// count, clean and when a peer dies and a survivor rebuilds its shard on
// the survivor's cores. The cores are pinned, so the slaves' widths do not
// depend on the host.
func TestSlaveWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	b := recoveryBench(t)
	seqRes, err := Run(b.ESTs, recoveryConfig(1, mp.Config{Procs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeLabels(seqRes.Labels)
	for _, cores := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(cores)
		for _, p := range []int{2, 3, 4} {
			check := func(what string, fault *mp.FaultPlan) *Result {
				cfg := recoveryConfig(p, mp.Config{Procs: p, Mode: mp.ModeReal})
				cfg.MP.Fault = fault
				res, err := Run(b.ESTs, cfg)
				if err != nil {
					t.Fatalf("cores=%d p=%d %s: %v", cores, p, what, err)
				}
				if !slices.Equal(normalizeLabels(res.Labels), want) {
					t.Errorf("cores=%d p=%d %s: partition differs from the sequential one", cores, p, what)
				}
				return res
			}
			if res := check("clean", nil); res.Stats.PairsGenerated != seqRes.Stats.PairsGenerated {
				t.Errorf("cores=%d p=%d: %d pairs generated, sequential %d", cores, p, res.Stats.PairsGenerated, seqRes.Stats.PairsGenerated)
			}
			if p < 3 {
				continue
			}
			res := check("slave 2 lost", &mp.FaultPlan{Seed: 1, CrashRank: 2, CrashAfter: 3, CrashTag: tagReport})
			if res.Stats.Recovery.RanksLost != 1 {
				t.Errorf("cores=%d p=%d: %d ranks lost, want 1", cores, p, res.Stats.Recovery.RanksLost)
			}
		}
	}
}

// comparePairs orders pairs field by field.
func comparePairs(a, b pairgen.Pair) int {
	return cmp.Or(cmp.Compare(a.S1, b.S1), cmp.Compare(a.S2, b.S2), cmp.Compare(a.Pos1, b.Pos1),
		cmp.Compare(a.Pos2, b.Pos2), cmp.Compare(a.MatchLen, b.MatchLen))
}

// A genChain over the generators setUp makes emits the pairs and the count
// of one generator over the whole forest, full and fresh-only, at every
// width, over forests of all the buckets, one, three and none (the edges
// TestChunkCover holds the chunks to). A call asking for at least one pair
// per generator draws from every generator not yet exhausted, and over one
// generator the chain is that generator's stream, pair for pair.
func TestGenChain(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	set, err := seq.NewSetS(b.ESTs[:40])
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set.Append(b.ESTs[40:])
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18
	table := suffix.CollectOwned(set, cfg.Window, make([]int32, suffix.NumBuckets(cfg.Window)), 0, 0, seq.StringID(set.NumStrings()))
	all := table.NonEmpty()
	noClock := func() time.Duration { return 0 }
	for _, fresh := range []seq.Gen{0, gen} {
		cfg.FreshGen = fresh
		for _, ids := range [][]int32{all, all[:1], all[:3], nil} {
			forest, err := suffix.BuildBuckets(set, table, ids, 1)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := pairgen.NewFresh(set, forest, cfg.Psi, fresh)
			if err != nil {
				t.Fatal(err)
			}
			stream := whole.Next(nil, math.MaxInt)
			want := slices.Clone(stream)
			slices.SortFunc(want, comparePairs)
			if len(want) == 0 && len(ids) == len(all) {
				t.Fatalf("fresh=%d: no pairs; the chain checks nothing", fresh)
			}
			for _, workers := range workerCounts {
				what := fmt.Sprintf("fresh=%d buckets=%d workers=%d", fresh, len(ids), workers)
				gens, _, _, err := setUp(set, cfg, table, ids, workers, nil, noClock)
				if err != nil {
					t.Fatal(err)
				}
				chain := &genChain{gens: gens}
				var got []pairgen.Pair
				for call := 0; ; call++ {
					k := []int{len(gens), len(gens) + 3, 60}[call%3]
					drawn := make([]int64, len(gens))
					for i, g := range gens {
						drawn[i] = g.Stats().Generated
					}
					n := len(got)
					got = chain.Next(got, k)
					if len(got) > n+k {
						t.Fatalf("%s: asked for %d pairs, got %d", what, k, len(got)-n)
					}
					for i, g := range gens {
						if g.Remaining() && g.Stats().Generated == drawn[i] {
							t.Fatalf("%s: call %d for %d pairs skipped generator %d of %d", what, call, k, i, len(gens))
						}
					}
					if len(got) == n {
						break
					}
				}
				if chain.Remaining() {
					t.Fatalf("%s: the chain came up empty with pairs remaining", what)
				}
				if len(gens) == 1 && !slices.Equal(got, stream) {
					t.Fatalf("%s: one generator's chain is not its stream", what)
				}
				var generated int64
				for _, g := range gens {
					generated += g.Stats().Generated
				}
				if generated != whole.Stats().Generated {
					t.Fatalf("%s: %d generated, the whole forest's generator %d", what, generated, whole.Stats().Generated)
				}
				slices.SortFunc(got, comparePairs)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d pairs against the whole forest's %d, or another multiset", what, len(got), len(want))
				}
			}
		}
	}
}
