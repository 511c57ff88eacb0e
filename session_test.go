package pace

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pace/internal/cluster"
	"pace/internal/seq"
)

// sessionNormalize renumbers labels by first occurrence so two partitions
// can be compared up to label permutation.
func sessionNormalize(labels []int) []int {
	next := 0
	seen := make(map[int]int, len(labels))
	out := make([]int, len(labels))
	for i, l := range labels {
		m, ok := seen[l]
		if !ok {
			m = next
			seen[l] = next
			next++
		}
		out[i] = m
	}
	return out
}

func sameLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sessionSplits is the prefix-split matrix of the incremental-equivalence
// gate: a big-batch split, a three-way split, and a one-at-a-time tail.
// Values are EST counts and must sum to the benchmark size (80).
var sessionSplits = map[string][]int{
	"70-30":       {56, 24},
	"50-25-25":    {40, 20, 20},
	"tail-by-one": {74, 1, 1, 1, 1, 1, 1},
}

func sessionOptions(t *testing.T, mode string) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18
	switch mode {
	case "seq":
	case "sim":
		opt.Processors = 4
		opt.Simulated = true
	case "real":
		opt.Processors = 4
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return opt
}

// TestSessionPrefixSplitEquivalence is the tentpole gate: for every prefix
// split and engine mode, feeding batches through a Session yields labels
// permutation-identical to clustering the union from scratch, each
// incremental batch generates strictly fewer promising pairs than the
// from-scratch run, and — because a pair's maximal common substring is a
// property of its two strings alone — the batches' pair counts sum exactly
// to the from-scratch total: every pair is generated once, in the batch
// that introduces its younger string.
//
// PACE_SPLIT, when set, restricts the run to one named split (CI matrix).
func TestSessionPrefixSplitEquivalence(t *testing.T) {
	b := testBenchmark(t, 80, 5, 11)

	splits := sessionSplits
	if only := os.Getenv("PACE_SPLIT"); only != "" {
		part, ok := splits[only]
		if !ok {
			t.Fatalf("PACE_SPLIT=%q names no split in %v", only, splits)
		}
		splits = map[string][]int{only: part}
	}

	for name, split := range splits {
		total := 0
		for _, sz := range split {
			total += sz
		}
		if total != len(b.ESTs) {
			t.Fatalf("split %s covers %d of %d ESTs", name, total, len(b.ESTs))
		}
		for _, mode := range []string{"seq", "sim", "real"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				opt := sessionOptions(t, mode)

				scratch, err := Cluster(b.ESTs, opt)
				if err != nil {
					t.Fatalf("from-scratch Cluster: %v", err)
				}

				sess, err := NewSession(opt)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				var generated int64
				off := 0
				for bi, sz := range split {
					cl, err := sess.Add(b.ESTs[off : off+sz])
					if err != nil {
						t.Fatalf("Add batch %d: %v", bi, err)
					}
					off += sz
					generated += cl.Stats.PairsGenerated
					if len(cl.Labels) != off {
						t.Fatalf("batch %d: %d labels for %d ESTs", bi, len(cl.Labels), off)
					}
					if bi == 0 {
						continue
					}
					inc := cl.Stats.Incremental
					if cl.Stats.PairsGenerated >= scratch.Stats.PairsGenerated {
						t.Errorf("batch %d generated %d pairs, want fewer than from-scratch %d",
							bi, cl.Stats.PairsGenerated, scratch.Stats.PairsGenerated)
					}
					if inc.FreshPairs != cl.Stats.PairsGenerated {
						t.Errorf("batch %d: FreshPairs %d != PairsGenerated %d",
							bi, inc.FreshPairs, cl.Stats.PairsGenerated)
					}
					if inc.BucketsRebuilt <= 0 {
						t.Errorf("batch %d: BucketsRebuilt = %d, want > 0", bi, inc.BucketsRebuilt)
					}
					if sz == 1 && inc.BucketsReused <= 0 {
						t.Errorf("single-EST batch %d reused %d buckets, want > 0", bi, inc.BucketsReused)
					}
				}

				if got, want := sessionNormalize(sess.Labels()), sessionNormalize(scratch.Labels); !sameLabels(got, want) {
					t.Errorf("incremental labels differ from from-scratch labels\n got: %v\nwant: %v", got, want)
				}
				// Pair generation partitions across batches: nothing lost,
				// nothing judged twice.
				if generated != scratch.Stats.PairsGenerated {
					t.Errorf("batches generated %d pairs total, from-scratch generated %d",
						generated, scratch.Stats.PairsGenerated)
				}
				if sess.Batches() != len(split) {
					t.Errorf("Batches() = %d, want %d", sess.Batches(), len(split))
				}
				if sess.NumESTs() != len(b.ESTs) {
					t.Errorf("NumESTs() = %d, want %d", sess.NumESTs(), len(b.ESTs))
				}
			})
		}
	}
}

// failRunSet swaps the session's engine entry point for one that performs
// the complete batch run — mutating the sequence set and bucket cache
// exactly as a real run would — and then reports failure. This is the
// latest possible failure point of an Add, so it exercises the full
// rollback. Restored via t.Cleanup.
func failRunSet(t *testing.T) {
	t.Helper()
	orig := runSet
	runSet = func(set *seq.SetS, cfg cluster.Config) (*cluster.Result, error) {
		if _, err := cluster.RunSet(set, cfg); err != nil {
			return nil, err
		}
		return nil, errors.New("injected post-run failure")
	}
	t.Cleanup(func() { runSet = orig })
}

// TestSessionAddFailureAtomicRetry is the failure-atomicity gate: an Add
// that fails after mutating the engine state must leave NumESTs, Batches
// and Labels untouched, and a retried identical Add must succeed with
// labels equal to a never-failed run — on both the sequential (cached) and
// simulated parallel engines.
func TestSessionAddFailureAtomicRetry(t *testing.T) {
	b := testBenchmark(t, 60, 4, 23)
	cut := 45
	for _, mode := range []string{"seq", "sim"} {
		t.Run(mode, func(t *testing.T) {
			opt := sessionOptions(t, mode)

			// Control: the same two batches through a session that never fails.
			control, err := NewSession(opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := control.Add(b.ESTs[:cut]); err != nil {
				t.Fatal(err)
			}
			controlCl, err := control.Add(b.ESTs[cut:])
			if err != nil {
				t.Fatal(err)
			}

			sess, err := NewSession(opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Add(b.ESTs[:cut]); err != nil {
				t.Fatal(err)
			}
			labelsBefore := sess.Labels()

			failRunSet(t)
			if _, err := sess.Add(b.ESTs[cut:]); err == nil {
				t.Fatal("injected failure did not surface")
			}
			if sess.NumESTs() != cut {
				t.Errorf("failed Add changed NumESTs: %d, want %d", sess.NumESTs(), cut)
			}
			if sess.Batches() != 1 {
				t.Errorf("failed Add changed Batches: %d, want 1", sess.Batches())
			}
			if !sameLabels(sess.Labels(), labelsBefore) {
				t.Error("failed Add changed Labels")
			}

			runSet = cluster.RunSet
			cl, err := sess.Add(b.ESTs[cut:])
			if err != nil {
				t.Fatalf("retried Add: %v", err)
			}
			if got, want := sessionNormalize(cl.Labels), sessionNormalize(controlCl.Labels); !sameLabels(got, want) {
				t.Errorf("retried Add labels differ from never-failed run\n got: %v\nwant: %v", got, want)
			}
			if cl.Stats.PairsGenerated != controlCl.Stats.PairsGenerated {
				t.Errorf("retried Add generated %d pairs, never-failed run generated %d",
					cl.Stats.PairsGenerated, controlCl.Stats.PairsGenerated)
			}
			if cl.Stats.Incremental.BucketsRebuilt != controlCl.Stats.Incremental.BucketsRebuilt ||
				cl.Stats.Incremental.BucketsReused != controlCl.Stats.Incremental.BucketsReused {
				t.Errorf("retried Add bucket work (rebuilt=%d reused=%d) differs from never-failed (rebuilt=%d reused=%d)",
					cl.Stats.Incremental.BucketsRebuilt, cl.Stats.Incremental.BucketsReused,
					controlCl.Stats.Incremental.BucketsRebuilt, controlCl.Stats.Incremental.BucketsReused)
			}
		})
	}
}

// TestSessionFirstAddFailureAtomic covers the rollback of a failed *first*
// Add: the session must return to the empty state and accept a retry.
func TestSessionFirstAddFailureAtomic(t *testing.T) {
	b := testBenchmark(t, 40, 3, 31)
	opt := sessionOptions(t, "seq")
	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	failRunSet(t)
	if _, err := sess.Add(b.ESTs); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if sess.NumESTs() != 0 || sess.Batches() != 0 || sess.Labels() != nil {
		t.Fatalf("failed first Add left state behind: n=%d batches=%d labels=%v",
			sess.NumESTs(), sess.Batches(), sess.Labels())
	}

	runSet = cluster.RunSet
	cl, err := sess.Add(b.ESTs)
	if err != nil {
		t.Fatalf("retried first Add: %v", err)
	}
	scratch, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sessionNormalize(cl.Labels), sessionNormalize(scratch.Labels); !sameLabels(got, want) {
		t.Error("retried first Add labels differ from from-scratch run")
	}
}

// TestSessionAddCheckpointFailureRollsBack drives an organic mid-run
// failure (no hook): the engine's periodic checkpoint write fails because a
// plain file squats on the checkpoint directory path, after the batch has
// already been absorbed into the set and cache. The session must roll back
// and, once the path is cleared, the retried Add must match a never-failed
// control.
func TestSessionAddCheckpointFailureRollsBack(t *testing.T) {
	b := testBenchmark(t, 40, 3, 31)
	cut := 30
	opt := sessionOptions(t, "seq")
	ckptPath := filepath.Join(t.TempDir(), "ckpt")
	opt.CheckpointDir = ckptPath
	opt.CheckpointInterval = time.Nanosecond

	control, err := NewSession(sessionOptions(t, "seq"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.Add(b.ESTs[:cut]); err != nil {
		t.Fatal(err)
	}
	controlCl, err := control.Add(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(b.ESTs[:cut]); err != nil {
		t.Fatal(err)
	}
	// Squat on the checkpoint path so the next run's snapshot write fails.
	if err := os.RemoveAll(ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(b.ESTs[cut:]); err == nil {
		t.Fatal("Add with unwritable checkpoint dir: want error")
	}
	if sess.NumESTs() != cut || sess.Batches() != 1 {
		t.Errorf("failed Add left state behind: n=%d batches=%d", sess.NumESTs(), sess.Batches())
	}

	if err := os.Remove(ckptPath); err != nil {
		t.Fatal(err)
	}
	cl, err := sess.Add(b.ESTs[cut:])
	if err != nil {
		t.Fatalf("retried Add after clearing checkpoint path: %v", err)
	}
	if got, want := sessionNormalize(cl.Labels), sessionNormalize(controlCl.Labels); !sameLabels(got, want) {
		t.Error("retried Add labels differ from never-failed control")
	}
	if cl.Stats.PairsGenerated != controlCl.Stats.PairsGenerated {
		t.Errorf("retried Add generated %d pairs, control %d",
			cl.Stats.PairsGenerated, controlCl.Stats.PairsGenerated)
	}
}

// TestSessionCheckpointResume round-trips a session through SaveCheckpointFS /
// LoadCheckpoint / ResumeSession and checks the resumed session's next batch
// still matches a from-scratch run over the union.
func TestSessionCheckpointResume(t *testing.T) {
	b := testBenchmark(t, 60, 4, 23)
	opt := sessionOptions(t, "seq")
	cut := 45

	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(b.ESTs[:cut]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sess.SaveCheckpointFS(OSFS(), dir); err != nil {
		t.Fatalf("SaveCheckpointFS: %v", err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	resumed, err := ResumeSession(opt, b.ESTs[:cut], ResumeLabels(ck))
	if err != nil {
		t.Fatalf("ResumeSession: %v", err)
	}
	if resumed.NumESTs() != cut {
		t.Fatalf("resumed NumESTs = %d, want %d", resumed.NumESTs(), cut)
	}
	cl, err := resumed.Add(b.ESTs[cut:])
	if err != nil {
		t.Fatalf("Add after resume: %v", err)
	}
	if cl.Stats.Incremental.FreshPairs != cl.Stats.PairsGenerated {
		t.Errorf("resumed batch FreshPairs %d != PairsGenerated %d",
			cl.Stats.Incremental.FreshPairs, cl.Stats.PairsGenerated)
	}

	scratch, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sessionNormalize(resumed.Labels()), sessionNormalize(scratch.Labels); !sameLabels(got, want) {
		t.Errorf("resumed labels differ from from-scratch labels\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionResumeErrors covers the resume-path validation edges.
func TestSessionResumeErrors(t *testing.T) {
	opt := sessionOptions(t, "seq")
	if _, err := ResumeSession(opt, []string{"ACGTACGTACGT"}, []int{0, 1}); err == nil {
		t.Error("ResumeSession with mismatched label count: want error")
	}
	if _, err := ResumeSession(opt, []string{"ACGTXCGTACGT"}, []int{0}); err == nil {
		t.Error("ResumeSession with invalid EST: want error")
	}
	bad := opt
	bad.Window = 0
	if _, err := NewSession(bad); err == nil {
		t.Error("NewSession with Window=0: want error")
	}
}

// TestSessionEmptyStates covers accessors before the first Add and the
// empty-batch rejection.
func TestSessionEmptyStates(t *testing.T) {
	opt := sessionOptions(t, "seq")
	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Labels() != nil {
		t.Error("Labels() before first Add: want nil")
	}
	if sess.Clustering() != nil {
		t.Error("Clustering() before first Add: want nil")
	}
	if sess.NumESTs() != 0 || sess.Batches() != 0 {
		t.Errorf("empty session reports %d ESTs, %d batches", sess.NumESTs(), sess.Batches())
	}
	if _, err := sess.Add(nil); err == nil {
		t.Error("Add(nil): want error")
	}
	if err := sess.SaveCheckpointFS(OSFS(), t.TempDir()); err == nil {
		t.Error("SaveCheckpointFS before first Add: want error")
	}
}

// TestSessionMetrics asserts the pace_incremental_* families are published
// when a session runs with a metrics registry attached.
func TestSessionMetrics(t *testing.T) {
	b := testBenchmark(t, 40, 3, 31)
	opt := sessionOptions(t, "seq")
	opt.Metrics = NewMetricsRegistry()

	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(b.ESTs[:30]); err != nil {
		t.Fatal(err)
	}
	cl, err := sess.Add(b.ESTs[30:])
	if err != nil {
		t.Fatal(err)
	}

	snap := opt.Metrics.Snapshot()
	if got := snap["pace_incremental_batches_total"]; got != 2 {
		t.Errorf("pace_incremental_batches_total = %v, want 2", got)
	}
	if got := snap["pace_incremental_fresh_pairs_total"]; got != float64(cl.Stats.Incremental.FreshPairs) {
		t.Errorf("pace_incremental_fresh_pairs_total = %v, want %d", got, cl.Stats.Incremental.FreshPairs)
	}
	if got := snap["pace_incremental_buckets_rebuilt"]; got != float64(cl.Stats.Incremental.BucketsRebuilt) {
		t.Errorf("pace_incremental_buckets_rebuilt = %v, want %d", got, cl.Stats.Incremental.BucketsRebuilt)
	}
	if got := snap["pace_incremental_batch_ns_count"]; got != 2 {
		t.Errorf("pace_incremental_batch_ns_count = %v, want 2", got)
	}
	var haveStale bool
	for name := range snap {
		if strings.HasPrefix(name, "pace_incremental_stale_suppressed_total") {
			haveStale = true
		}
	}
	if !haveStale {
		t.Error("pace_incremental_stale_suppressed_total missing from snapshot")
	}
}
