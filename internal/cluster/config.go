// Package cluster is the PaCE clustering engine (paper §3.3): a master rank
// maintains the EST clusters in a union-find structure and a bounded work
// buffer of promising pairs awaiting alignment; slave ranks build their
// share of the distributed generalized suffix tree, generate promising pairs
// on demand in decreasing order of maximal common substring length, and
// compute anchored banded alignments on the batches the master dispatches.
// Flow control follows the paper: the master asks each slave for
// E = min(α·δ·batchsize, nfree/p) new pairs per interaction, parks slaves on
// a wait queue when no work is available, and slaves hide latency by keeping
// a NEXTWORK batch in hand and by generating pairs while waiting for the
// master's reply.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"pace/internal/align"
	"pace/internal/mp"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/telemetry"
	"pace/internal/vfs"
)

// Config parameterizes a clustering run.
type Config struct {
	// Window is the bucket-prefix width w for GST construction
	// (paper: 8). Must not exceed Psi.
	Window int
	// Psi is the promising-pair threshold ψ: the minimum maximal-common-
	// substring length for a pair to be generated.
	Psi int
	// BatchSize is the number of pairs dispatched to a slave per
	// interaction (paper: 40–60 optimal).
	BatchSize int
	// WorkBufCap bounds the master's WORKBUF queue.
	WorkBufCap int

	// Scoring and Criteria govern pairwise alignment and acceptance;
	// Band is the banded-extension half-width.
	Scoring  align.Scoring
	Criteria align.Criteria
	Band     int

	// SkipSameCluster enables the paper's pruning: a pair whose ESTs
	// already share a cluster is neither queued nor aligned. The parallel
	// engine applies it at the master and, on replica union-finds, at the
	// slaves. Disabling it is an ablation knob.
	SkipSameCluster bool

	// MP configures the message-passing machine (rank count, real vs
	// simulated execution, network model). MP.Procs == 1 selects the
	// sequential in-process engine.
	MP mp.Config

	// Ctx, when non-nil, bounds the run: the engine polls it at phase
	// boundaries, once per batch in each sequential worker, and once per
	// slave report in the master's protocol loop, and aborts with an error
	// wrapping Ctx.Err() when it is done. Polling (rather than selecting
	// on Done) needs no goroutine to watch the context and lets tests
	// trip cancellation at a deterministic poll count. nil means the run
	// cannot be canceled (the pre-server behavior).
	Ctx context.Context

	// InitialLabels optionally seeds the cluster structure with a prior
	// partition over a prefix of the ESTs (incremental re-clustering,
	// the paper's future-work item): ESTs sharing a non-negative label
	// start merged, so pairs inside old clusters are skipped rather than
	// re-aligned. Entries < 0 are unconstrained.
	InitialLabels []int32

	// FreshGen, when > 0, restricts the run to the pairs a new batch can
	// affect: only strings of generation >= FreshGen (see seq.SetS.Append)
	// count as fresh, buckets no fresh suffix falls into are skipped
	// entirely, and old×old pairs inside rebuilt buckets are suppressed.
	// A pair's maximal common substring is a property of the two strings
	// alone, so every suppressed pair was generated — and judged — by the
	// run that introduced the younger of its strings; with InitialLabels
	// seeding that run's partition, the final clusters equal a from-scratch
	// run over the whole set. 0 (the default) clusters everything.
	FreshGen seq.Gen

	// Cache, when non-nil, carries the flat suffix table across the
	// sequential runs of a session: a batch's suffixes are merged in as it
	// arrives and only the buckets it touches are built, so batch k+1
	// scans only its own strings. Sequential engine only (MP.Procs == 1);
	// the parallel engine re-collects per run.
	Cache *BucketCache

	// SlaveTimeout bounds how long the master waits for the next slave
	// report; on expiry the run aborts with a descriptive error instead of
	// hanging on a silently-wedged (rather than crashed) slave. 0 disables
	// the watchdog.
	SlaveTimeout time.Duration
	// Checkpoint configures periodic snapshots of the master's clustering
	// state; see CheckpointConfig. A zero value disables checkpointing.
	Checkpoint CheckpointConfig

	// Metrics, when non-nil, receives live instrumentation: pair counters,
	// the WORKBUF high water, bucket sizes, redistribution skew, master
	// idle and incremental tallies. nil (the default) disables the probes
	// at the cost of one pointer test per site.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives Chrome trace events: one timeline per
	// rank (pid TracePID, tid = rank) with phase spans and a WORKBUF
	// occupancy counter series. Virtual timestamps under the simulated
	// transport.
	Trace *telemetry.TraceWriter
	// TracePID is the trace process lane the run's events are emitted on.
	// A single run keeps the default 0; a server hosting many concurrent
	// sessions gives each its own lane so their per-rank timelines do not
	// interleave in the viewer.
	TracePID int
	// TraceProcess names the TracePID lane in the viewer; "" means
	// "pace pipeline".
	TraceProcess string
	// Log, when non-nil, receives structured lifecycle events: checkpoint
	// writes, slave-failure recovery, resume seeding. nil discards them.
	// The handler must stamp records from an injected telemetry.Clock
	// (telemetry.NewLogger), never the wall clock — the walltime analyzer
	// enforces this package's determinism contract.
	Log *slog.Logger
}

// logger returns the configured logger or a disabled one, so call sites
// never nil-check and disabled logging costs one dispatch per event.
func (c Config) logger() *slog.Logger {
	if c.Log != nil {
		return c.Log
	}
	return telemetry.NopLogger()
}

// ctx returns the run's context, defaulting to the background context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// ctxErr polls the run's context; a non-nil return means the run must
// abort now. The error wraps Ctx.Err(), so callers can errors.Is against
// context.Canceled / context.DeadlineExceeded.
func (c Config) ctxErr() error {
	if err := c.ctx().Err(); err != nil {
		return fmt.Errorf("cluster: run canceled: %w", err)
	}
	return nil
}

// traceProcess returns the viewer name of the run's trace lane.
func (c Config) traceProcess() string {
	if c.TraceProcess != "" {
		return c.TraceProcess
	}
	return "pace pipeline"
}

// DefaultConfig mirrors the paper's operating point on p ranks.
func DefaultConfig(p int) Config {
	return Config{
		Window:          8,
		Psi:             20,
		BatchSize:       60,
		WorkBufCap:      1 << 14,
		Scoring:         align.DefaultScoring(),
		Criteria:        align.DefaultCriteria(),
		Band:            12,
		SkipSameCluster: true,
		MP:              mp.Config{Procs: p, Mode: mp.ModeReal},
	}
}

// CheckpointConfig governs checkpoint/restart.
type CheckpointConfig struct {
	// Dir is where snapshots land (one file, CheckpointFile, replaced
	// atomically). Empty disables checkpointing.
	Dir string
	// Interval is the minimum time between snapshots on the engine's own
	// clock: wall time in the sequential and real engines, virtual time
	// under the simulator. 0 derives 30s.
	Interval time.Duration
	// FS is the filesystem seam snapshots are written through; nil means
	// the real filesystem. Servers thread their (possibly fault-injecting)
	// vfs.FS here so the periodic checkpoint shares the session's chaos
	// plan.
	FS vfs.FS
}

func (c CheckpointConfig) fs() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS{}
}

func (c CheckpointConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 30 * time.Second
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := suffix.ValidateWindow(c.Window); err != nil {
		return err
	}
	if c.Psi < c.Window {
		return fmt.Errorf("cluster: Psi %d < Window %d would lose pairs with short anchors", c.Psi, c.Window)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("cluster: BatchSize must be >= 1")
	}
	if c.WorkBufCap < c.BatchSize {
		return fmt.Errorf("cluster: WorkBufCap %d < BatchSize %d", c.WorkBufCap, c.BatchSize)
	}
	if c.WorkBufCap < c.MP.Procs {
		// The per-slave bootstrap grant is ~WorkBufCap/p; below p ranks the
		// never-starve floor of one pair per slave could breach the bound.
		return fmt.Errorf("cluster: WorkBufCap %d < Procs %d breaks the WORKBUF bound", c.WorkBufCap, c.MP.Procs)
	}
	if c.SlaveTimeout < 0 {
		return fmt.Errorf("cluster: SlaveTimeout must be >= 0")
	}
	if c.Checkpoint.Interval < 0 {
		return fmt.Errorf("cluster: checkpoint cadence must be >= 0")
	}
	if c.Band < 1 {
		return fmt.Errorf("cluster: Band must be >= 1")
	}
	if c.FreshGen < 0 {
		return fmt.Errorf("cluster: FreshGen must be >= 0")
	}
	if c.Cache != nil && c.MP.Procs != 1 {
		return fmt.Errorf("cluster: Cache requires the sequential engine (MP.Procs == 1)")
	}
	if err := c.Scoring.Validate(); err != nil {
		return err
	}
	if err := c.Criteria.Validate(); err != nil {
		return err
	}
	if c.MP.Procs < 1 {
		return fmt.Errorf("cluster: MP.Procs must be >= 1")
	}
	return nil
}

const (
	// pairBufBatches sizes a slave's PAIRBUF of generated-but-unreported
	// pairs, in batches: the buffer holds pairBufBatches×BatchSize pairs.
	pairBufBatches = 4
	// genChunk is how many pairs a slave generates per probe of the
	// master's reply while overlapping generation with waiting.
	genChunk = 32
	// alphaMax caps the flow-control redundancy factor α. α estimates how
	// many reported pairs are needed per pair that survives the master's
	// same-cluster filter. Slaves ship only pairs their replica union-find
	// did not join, so α measures how far the replicas lag the master: ≈ 1
	// when they are current. When an entire incoming batch is redundant the
	// ratio is undefined and, uncapped, a raw batch length would inflate the
	// grant E unboundedly.
	alphaMax = 4.0
)

// bootstrapGrant is the size of the unsolicited pair batch a slave ships
// with its very first report. It is the implicit initial grant E charged
// against the WORKBUF: capping it at WorkBufCap/p keeps the sum over the
// p-1 slaves under WorkBufCap before the master has said a single word.
func bootstrapGrant(cfg Config, p int) int {
	g := cfg.WorkBufCap / p
	if g > cfg.BatchSize {
		g = cfg.BatchSize
	}
	if g < 1 {
		g = 1
	}
	return g
}

// PhaseTimes is the per-component breakdown of the paper's Table 3. Each
// entry is the maximum over ranks of the time that rank spent in the phase;
// in simulated runs these are virtual times.
type PhaseTimes struct {
	Partition time.Duration // bucketing histogram + assignment + collection
	Construct time.Duration // GST subtree construction
	Sort      time.Duration // ordering nodes by decreasing string-depth
	Align     time.Duration // pairwise alignment compute
	Total     time.Duration // end-to-end (max final rank clock)
}

// Stats aggregates a run's counters (the series of Figure 7 among them).
type Stats struct {
	// PairsGenerated counts canonical promising pairs produced by the
	// generators.
	PairsGenerated int64
	// PairsProcessed counts alignments actually computed.
	PairsProcessed int64
	// PairsAccepted counts alignments passing the merge criteria.
	PairsAccepted int64
	// PairsSkipped counts pairs pruned because their ESTs already shared
	// a cluster: at the master on enqueue or dispatch, at a slave on its
	// replica union-find's word.
	PairsSkipped int64
	// Merges counts union operations that actually joined two clusters.
	Merges int64
	// MasterBusy is the time the master spent processing messages, on the
	// master rank's clock — virtual time under simulation, wall time on the
	// real transport (the paper reports it stays under 2% of the total).
	MasterBusy time.Duration
	// WorkBufHighWater is the maximum number of pairs the master's WORKBUF
	// ever held (parallel runs). The flow-control invariant asserts it
	// never exceeds Config.WorkBufCap: the grant formula E =
	// min(α·δ·batchsize, nfree/p) charges every outstanding grant
	// (including the slaves' bootstrap batches) against the free space
	// before issuing a new one.
	WorkBufHighWater int
	// MasterIdle is the time the master's dispatch loop spent blocked in
	// Recv waiting for slave reports (zero in sequential runs); merge
	// application is MasterBusy. Prologue waits (the bucket-count
	// allreduces) are excluded: they are collective synchronization, not
	// dispatch-loop idling, and would drown the signal at large p.
	MasterIdle time.Duration
	// Phases is the per-phase breakdown.
	Phases PhaseTimes
	// PerRank is the per-rank load/communication breakdown behind the
	// paper's Table 3, gathered from every rank at shutdown and sorted by
	// rank. Sequential runs get a single "seq" row so report code need not
	// special-case Procs == 1. Ranks that died mid-run appear with role
	// "lost" and zeroed counters.
	PerRank []RankStats
	// Recovery tallies fault-recovery and checkpoint activity.
	Recovery RecoveryStats
	// Incremental tallies batch-ingest activity; zero unless Config.FreshGen
	// or Config.Cache was set.
	Incremental IncrementalStats
}

// IncrementalStats counts what the incremental machinery saved and did
// during one batch run (Config.FreshGen > 0 or Config.Cache != nil).
type IncrementalStats struct {
	// BucketsRebuilt is the number of GST buckets the batch touched — the
	// ones whose subtrees were (re)built this run.
	BucketsRebuilt int64
	// BucketsReused is the number of non-empty buckets no fresh suffix fell
	// into: every pair inside them was judged in an earlier generation, so
	// the run skipped them without building a subtree.
	BucketsReused int64
	// FreshPairs is the number of promising pairs the restricted generators
	// emitted — the work actually attributable to the batch. Equals
	// Stats.PairsGenerated on an incremental run.
	FreshPairs int64
	// StaleSuppressed counts old×old pairs individually skipped inside
	// rebuilt buckets (wholesale group skips are not enumerable and not
	// counted).
	StaleSuppressed int64
}

// RecoveryStats counts what the fault-tolerance machinery did during a run.
type RecoveryStats struct {
	// RanksLost is the number of slave ranks that died mid-protocol and
	// were recovered from.
	RanksLost int64
	// GrantsReclaimed counts outstanding WORKBUF grant slots returned by
	// dead slaves.
	GrantsReclaimed int64
	// PairsRequeued counts dispatched-but-unacknowledged pairs requeued to
	// surviving slaves.
	PairsRequeued int64
	// ShardsReassigned counts bucket shards handed to survivors for rebuild
	// and pair regeneration.
	ShardsReassigned int64
	// SeedMerges is the number of union operations performed while seeding
	// the cluster structure from InitialLabels (e.g. a resumed checkpoint);
	// a resumed run's Merges should equal a failure-free run's Merges minus
	// this.
	SeedMerges int64
	// Checkpoints / CheckpointBytes tally snapshot writes.
	Checkpoints     int64
	CheckpointBytes int64
}

// RankStats is one rank's row of the load-balance table: where its time went
// and how much it communicated. Durations are virtual in simulated runs.
// Comm counters snapshot the rank's mp.CommStats just before its final
// report to the master.
type RankStats struct {
	Rank int
	// Role is "master", "slave", or "seq"; a slave that died mid-run and
	// was recovered from appears as "lost" with zeroed counters.
	Role string

	Partition time.Duration
	Construct time.Duration
	Sort      time.Duration
	Align     time.Duration
	Total     time.Duration

	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	// RecvWait is time blocked in receives — idle time for the master, a
	// load-imbalance signal for slaves.
	RecvWait time.Duration
	// CollectiveOps / CollectiveTime tally collective calls and their
	// latency (composites count constituents; see mp.CollectiveStats).
	CollectiveOps  int64
	CollectiveTime time.Duration

	PairsGenerated int64
	PairsProcessed int64
	PairsAccepted  int64
	// PairsSkipped and StaleSuppressed are this rank's shares of
	// Stats.PairsSkipped and Stats.Incremental.StaleSuppressed.
	PairsSkipped    int64
	StaleSuppressed int64
	// Busy is meaningful on the master only: time spent processing
	// messages rather than waiting.
	Busy time.Duration
}

// Result is the outcome of a clustering run.
type Result struct {
	// Labels assigns each EST a dense cluster label.
	Labels []int32
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Stats carries counters and timings.
	Stats Stats
}
