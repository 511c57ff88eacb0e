package pace

import (
	"context"
	"fmt"

	"pace/internal/cluster"
	"pace/internal/seq"
	"pace/internal/telemetry"
	"pace/internal/vfs"
)

// Incremental batch telemetry published by Session.Add when Options.Metrics
// is set, alongside the engine's pace_incremental_buckets_* gauges and
// pace_incremental_{fresh_pairs,stale_suppressed}_total counters.
const (
	metricBatchesTotal = "pace_incremental_batches_total"
	metricBatchNs      = "pace_incremental_batch_ns"
)

// batchNsBounds buckets metricBatchNs, 1µs up ×4 per bucket. Held once so
// an update on a disabled registry allocates nothing.
var batchNsBounds = telemetry.ExpBounds(1000, 4, 16)

// Session is a persistent clustering instance that ingests EST batches
// incrementally — the paper's closing open problem ("is there a way to
// incrementally adjust the EST clusters when a new batch of ESTs is
// sequenced, instead of clustering all the ESTs from scratch?").
//
// Each Add appends a batch as a new generation of the sequence set and
// re-clusters only what the batch can affect: GST buckets no new suffix
// falls into are skipped (they cannot hold a fresh pair, so their subtrees
// are not built), and inside rebuilt buckets pairs whose strings both predate
// the batch are suppressed — their maximal common substring is a property
// of the two strings alone, so they were generated and judged when the
// younger string arrived, and that verdict is carried forward by seeding
// the union-find with the previous partition. The resulting labels are
// identical to clustering all ESTs ingested so far from scratch.
//
// A Session is single-goroutine state: do not call its methods
// concurrently. Add is failure-atomic: if a batch run fails, the appended
// generation is rolled back and the session is exactly as it was before
// the call — Labels, NumESTs and Batches are unchanged, and retrying the
// same Add is equivalent to a first attempt.
type Session struct {
	opt     Options
	set     *seq.SetS
	cache   *cluster.BucketCache
	labels  []int32
	last    *Clustering
	batches int
}

// NewSession validates the options and returns an empty session. The first
// Add clusters its batch from scratch; later Adds are incremental.
func NewSession(opt Options) (*Session, error) {
	cfg, err := opt.toConfig()
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{opt: opt}, nil
}

// ResumeSession rebuilds a session from previously clustered ESTs and their
// saved labels (e.g. SaveCheckpointFS + LoadCheckpoint + ResumeLabels) without
// re-clustering them: the next Add is incremental from the start, and sorts
// the saved ESTs' suffix table once before it runs.
func ResumeSession(opt Options, ests []string, labels []int) (*Session, error) {
	s, err := NewSession(opt)
	if err != nil {
		return nil, err
	}
	parsed, err := parseESTs(ests)
	if err != nil {
		return nil, err
	}
	set, err := seq.NewSetS(parsed)
	if err != nil {
		return nil, err
	}
	if len(labels) != set.NumESTs() {
		return nil, fmt.Errorf("pace: %d labels for %d ESTs", len(labels), set.NumESTs())
	}
	s.set = set
	s.labels = make([]int32, len(labels))
	for i, l := range labels {
		s.labels[i] = int32(l)
	}
	return s, nil
}

// warm gives a sequential session its bucket cache before its first run:
// an empty one for a new session, which the first batch fills like any
// one-shot run and every later batch merges into, and for a resumed one the
// saved ESTs' table, ordered once (Warm), so that a resumed session pays for
// it at its next Add, not when a server restarts.
func (s *Session) warm() error {
	if s.cache != nil || s.opt.Processors != 1 {
		return nil
	}
	cache := cluster.NewBucketCache()
	if s.set != nil {
		if err := cache.Warm(s.set, s.opt.Window); err != nil {
			return err
		}
	}
	s.cache = cache
	return nil
}

// runSet is swappable in tests to inject a failure at the latest possible
// point of a batch run — after the set append and cache absorption — so the
// rollback path can be exercised deterministically.
var runSet = cluster.RunSet

// Add ingests a batch of ESTs (DNA strings over ACGT; case-insensitive),
// re-clusters incrementally, and returns the clustering over every EST the
// session has seen. The returned Stats cover this batch's run only; its
// Incremental field reports how much work the batch avoided.
//
// Add is failure-atomic: on any error the session is left exactly as it
// was before the call (the appended generation and any bucket-cache
// absorption are rolled back), so a retried Add behaves like a first
// attempt — the guarantee a server needs to retry failed requests.
func (s *Session) Add(ests []string) (*Clustering, error) {
	return s.AddContext(context.Background(), ests)
}

// AddContext is Add with a context bounding the batch run: the engine polls
// ctx at phase boundaries and inside its dispatch loops, and when ctx is
// done the run aborts with an error wrapping ctx.Err(). Cancellation takes
// the same failure-atomic path as any other run error — the appended
// generation is rolled back and the session is exactly its pre-call self,
// so a canceled Add followed by a retried Add is indistinguishable from a
// single never-canceled Add.
func (s *Session) AddContext(ctx context.Context, ests []string) (*Clustering, error) {
	if len(ests) == 0 {
		return nil, fmt.Errorf("pace: empty batch")
	}
	parsed, err := parseESTs(ests)
	if err != nil {
		return nil, err
	}
	cfg, err := s.opt.toConfig()
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	if err := s.warm(); err != nil {
		return nil, err
	}
	prevESTs := 0
	if s.set == nil {
		s.set, err = seq.NewSetS(parsed)
		if err != nil {
			return nil, err
		}
	} else {
		prevESTs = s.set.NumESTs()
		if _, err := s.set.Append(parsed); err != nil {
			return nil, err
		}
	}
	cfg.Cache = s.cache
	if s.labels != nil {
		// Seed the prior partition: every old×old verdict carries forward.
		cfg.InitialLabels = s.labels
	}
	// Batch latency runs on the telemetry clock: wall time normally, the
	// frozen clock when the session is configured for reproducible reports
	// (Options.Stamp), so deterministic runs emit identical counters.
	clk := telemetry.NewWallClock().Elapsed
	if !s.opt.Stamp.IsZero() {
		clk = telemetry.FixedClock{}.Elapsed
	}
	t0 := clk()
	res, err := runSet(s.set, cfg)
	if err != nil {
		s.rollback(prevESTs)
		return nil, err
	}
	s.labels = res.Labels
	s.last = convertResult(res)
	s.batches++
	m := s.opt.Metrics
	m.Help(metricBatchesTotal, "EST batches ingested by sessions.")
	m.Help(metricBatchNs, "End-to-end latency of one incremental batch, nanoseconds.")
	m.Counter(metricBatchesTotal).Inc()
	m.Histogram(metricBatchNs, batchNsBounds).Observe((clk() - t0).Nanoseconds())
	return s.last, nil
}

// rollback undoes a failed batch: the sequence set is truncated to its
// pre-Add EST count and the bucket cache forgets every suffix of the
// discarded generation. Labels, the last clustering and the batch counter
// were never touched — they move only after a successful run — so the
// session is exactly its pre-Add self and the next Add re-runs the batch as
// if the failure never happened.
func (s *Session) rollback(prevESTs int) {
	if prevESTs == 0 {
		// The failed batch was the session's first: back to empty.
		s.set = nil
		if s.cache != nil {
			s.cache.Truncate(0)
		}
		return
	}
	// prevESTs is a prior NumESTs of this set, so it is always in range.
	_ = s.set.Truncate(prevESTs)
	if s.cache != nil {
		s.cache.Truncate(seq.Forward(seq.ESTID(prevESTs)))
	}
}

// Labels returns a copy of the current partition: one dense cluster label
// per EST, in ingest order. Nil before the first Add.
func (s *Session) Labels() []int {
	if s.labels == nil {
		return nil
	}
	out := make([]int, len(s.labels))
	for i, l := range s.labels {
		out[i] = int(l)
	}
	return out
}

// Clustering returns the result of the most recent Add (nil before any).
// Its Labels cover every EST the session holds; its Stats cover only the
// latest batch's run.
func (s *Session) Clustering() *Clustering { return s.last }

// NumESTs reports how many ESTs the session holds.
func (s *Session) NumESTs() int {
	if s.set == nil {
		return 0
	}
	return s.set.NumESTs()
}

// Batches reports how many batches have been ingested via Add.
func (s *Session) Batches() int { return s.batches }

// SaveCheckpointFS persists the session's current partition to
// dir/pace.ckpt through fsys (OSFS for the real disk) using the engine's
// checkpoint format (atomic replace, CRC-verified). Reload with
// LoadCheckpoint and re-enter with ResumeSession(opt, ests,
// ResumeLabels(ck)).
func (s *Session) SaveCheckpointFS(fsys vfs.FS, dir string) error {
	if s.set == nil {
		return fmt.Errorf("pace: session holds no ESTs")
	}
	ck, err := cluster.CheckpointFromLabels(s.set.NumESTs(), s.opt.Window, s.opt.MinMatch, s.labels)
	if err != nil {
		return err
	}
	_, err = cluster.WriteCheckpointFS(fsys, dir, ck)
	return err
}
