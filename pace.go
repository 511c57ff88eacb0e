// Package pace is a Go implementation of PaCE — the space- and time-
// efficient parallel EST clustering system of Kalyanaraman, Aluru and
// Kothari (ICPP 2002).
//
// Given a collection of Expressed Sequence Tags (ESTs), Cluster partitions
// them so that ESTs derived from the same gene land in the same cluster,
// considering both strands of each EST. The pipeline is the paper's:
// a distributed generalized suffix tree is built by bucketing suffixes on
// their first w characters; promising pairs are generated on demand in
// decreasing order of maximal common substring length at O(N) space; and a
// master–slave engine aligns pairs with anchored banded dynamic programming,
// merging clusters (union-find) on the four accepted overlap patterns.
//
// The package also bundles the supporting systems needed to reproduce the
// paper end to end: a synthetic EST benchmark generator with ground truth
// (Simulate), pair-based quality metrics (Evaluate), FASTA I/O, and a
// simulated message-passing machine so multi-processor scaling behaviour can
// be studied on any host (Options.Simulated).
package pace

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"time"

	"pace/internal/cluster"
	"pace/internal/mp"
	"pace/internal/seq"
	"pace/internal/telemetry"
	"pace/internal/vfs"
)

// The telemetry implementation lives in an internal package; these aliases
// and constructors make the sinks usable through the public API.
type (
	// MetricsRegistry collects counters, gauges and histograms from every
	// pipeline layer. Serve it with ServeMetrics or snapshot it after a run.
	MetricsRegistry = telemetry.Registry
	// TraceWriter streams Chrome trace-event output (chrome://tracing,
	// Perfetto).
	TraceWriter = telemetry.TraceWriter
	// MetricsServer is the HTTP server behind ServeMetrics.
	MetricsServer = telemetry.Server
	// RunReport is the machine-readable end-of-run artifact plus the
	// paper-style phase and per-rank tables.
	RunReport = telemetry.RunReport
	// PhaseEntry is one row of RunReport.Phases.
	PhaseEntry = telemetry.PhaseEntry
	// RankEntry is one row of RunReport.Ranks.
	RankEntry = telemetry.RankEntry

	// FaultPlan is a deterministic fault-injection schedule for the
	// message-passing layer: a seeded crash (rank × operation count × tag)
	// plus probabilistic send delays. Attach one via Options.Fault to
	// chaos-test a run.
	FaultPlan = mp.FaultPlan
	// Checkpoint is a versioned snapshot of the master's clustering state,
	// written periodically when Options.CheckpointDir is set and reloadable
	// with LoadCheckpoint for a resumed run.
	Checkpoint = cluster.Checkpoint
	// RecoveryStats reports fault-recovery and checkpoint activity.
	RecoveryStats = cluster.RecoveryStats
	// IncrementalStats reports what an incremental batch run skipped and
	// did: buckets rebuilt vs reused, fresh pairs emitted, old×old pairs
	// suppressed. See Session.
	IncrementalStats = cluster.IncrementalStats
	// Stats carries a run's counters (the quantities of the paper's Figure
	// 7) and phase timings.
	Stats = cluster.Stats
	// PhaseTimes breaks the run into the paper's Table 3 components.
	PhaseTimes = cluster.PhaseTimes
	// RankStats is one rank's row of the load-balance table.
	RankStats = cluster.RankStats

	// FS is the filesystem seam the session store and the checkpointer
	// write through (Session.SaveCheckpointFS, the serving stack's state
	// directory). OSFS returns the real one; NewFaultyFS wraps any FS with
	// a deterministic fault plan for chaos testing.
	FS = vfs.FS
	// FSFaultPlan is a deterministic, seeded, op-count-indexed filesystem
	// fault plan: ENOSPC on writes, torn short-writes, fsync and rename
	// failures, plus a sticky crash at an exact operation index — the
	// filesystem counterpart of FaultPlan.
	FSFaultPlan = vfs.Plan
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// OSFS returns the real filesystem implementation of FS.
func OSFS() FS { return vfs.OS{} }

// NewFaultyFS wraps under with a deterministic fault plan. The same plan
// over the same write sequence injects the same faults, so chaos runs are
// reproducible from the seed alone.
func NewFaultyFS(under FS, plan FSFaultPlan) FS { return vfs.NewFaulty(under, plan) }

// ParseFaultPlan parses an engine chaos spec (the -chaos flag grammar:
// comma-separated seed=N, crash=RANK:AFTER[:TAG], delay=P:DUR) into a
// FaultPlan for Options.Fault.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return mp.ParsePlan(spec) }

// ParseFSFaultPlan parses a filesystem chaos spec (the -chaos-fs flag
// grammar: comma-separated seed=N, crash=OP, pwrite=P, ptorn=P, psync=P,
// prename=P, max=N) into an FSFaultPlan for NewFaultyFS.
func ParseFSFaultPlan(spec string) (FSFaultPlan, error) { return vfs.ParsePlan(spec) }

// RegisterBuildInfo publishes the pace_build_info gauge (module version, go
// version, VCS revision) on the registry, so every scrape identifies the
// binary it came from.
func RegisterBuildInfo(r *MetricsRegistry) { telemetry.RegisterBuildInfo(r) }

// NewTraceWriter starts a Chrome trace stream on w; call Close when done.
func NewTraceWriter(w io.Writer) *TraceWriter { return telemetry.NewTraceWriter(w) }

// ServeMetrics serves Prometheus text (/metrics), expvar (/debug/vars) and
// pprof (/debug/pprof/) for the registry on addr.
func ServeMetrics(addr string, r *MetricsRegistry) (*MetricsServer, error) {
	return telemetry.Serve(addr, r)
}

// LoadCheckpoint reads and verifies the snapshot in dir (written by a run
// with Options.CheckpointDir set). Use Checkpoint.Validate to confirm it
// matches the resumed run's inputs and parameters, then seed
// Options.InitialLabels with ResumeLabels.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	return cluster.LoadCheckpoint(dir)
}

// ResumeLabels converts a checkpoint's partition into the form
// Options.InitialLabels expects.
func ResumeLabels(ck *Checkpoint) []int {
	l32 := ck.Labels()
	out := make([]int, len(l32))
	for i, l := range l32 {
		out[i] = int(l)
	}
	return out
}

// BenchFileName derives the conventional BENCH_<tool>_<stamp>.json name,
// stamped at t (the zero t means now, as for Options.Stamp).
func BenchFileName(tool string, t time.Time) string {
	return telemetry.BenchFileName(tool, t)
}

// Options configures Cluster. Start from DefaultOptions.
type Options struct {
	// Processors is the number of message-passing ranks, not of threads;
	// 1 runs the sequential engine, p >= 2 runs one master and p-1 slaves.
	// The sequential engine still builds its suffix forest on every core
	// (GOMAXPROCS) and runs one worker per core, each draining and aligning
	// its own chunk of the forest, at most one batch of pairs in flight
	// each; the partition does not depend on the core count. Each rank of
	// the parallel engine runs on one goroutine.
	Processors int
	// Simulated runs the parallel engine on the discrete-event simulated
	// machine (virtual clocks, modeled interconnect) instead of real
	// goroutine concurrency. Stats report virtual times. It needs
	// Processors >= 2: the sequential engine has no simulated machine.
	Simulated bool
	// Stamp, when non-zero, replaces the report's wall-clock timestamp
	// and zeroes the WallSeconds field in BuildReport. It also freezes the
	// simulated clock: a Simulated run no longer charges measured compute
	// time into its virtual clocks, so two identical stamped sim runs
	// produce identical virtual times, stats and byte-identical reports.
	// The zero value keeps the real clock.
	Stamp time.Time

	// Window is the suffix-bucketing prefix width w (paper: 8).
	Window int
	// MinMatch is ψ, the minimum maximal-common-substring length for a
	// pair of ESTs to be considered promising. Must be >= Window.
	MinMatch int
	// BatchSize is the number of pairs per master–slave interaction
	// (paper: 40–60).
	BatchSize int

	// Alignment scoring.
	Match, Mismatch, GapOpen, GapExtend int
	// Band is the banded-extension half-width (errors tolerated per
	// alignment flank).
	Band int

	// Acceptance thresholds for merging clusters.
	MinOverlap    int
	MinIdentity   float64
	MinScoreRatio float64

	// InitialLabels optionally seeds the clustering with a previous
	// partition over a prefix of the ESTs (incremental re-clustering:
	// pairs already co-clustered are skipped). Entries < 0 mean
	// unconstrained.
	InitialLabels []int

	// SlaveTimeout bounds how long the master waits for any slave report
	// before declaring the run wedged; 0 waits forever.
	SlaveTimeout time.Duration
	// Fault, when non-nil, injects deterministic faults into the
	// message-passing layer (chaos testing). See FaultPlan.
	Fault *FaultPlan

	// CheckpointDir enables periodic checkpointing of the master's
	// clustering state into this directory ("" disables). To resume a
	// killed run, reload with LoadCheckpoint and seed InitialLabels with
	// ResumeLabels.
	CheckpointDir string
	// CheckpointInterval is the minimum time between snapshots on the
	// engine's clock (virtual time when Simulated); 0 means 30s.
	CheckpointInterval time.Duration
	// FS routes the engine's periodic checkpoint writes through an
	// explicit filesystem seam (OSFS for the real disk, NewFaultyFS for
	// chaos runs); nil uses the real filesystem.
	FS FS

	// Metrics, when non-nil, receives live instrumentation: pair counters,
	// the WORKBUF high water, bucket sizes, load skew, master idle and
	// incremental tallies. nil (the default) leaves only per-site pointer
	// tests in the hot paths.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives Chrome trace events with one timeline
	// per rank (virtual timestamps when Simulated). The caller owns Close.
	Trace *TraceWriter
	// TracePID is the trace process lane the engine's spans land on
	// (default 0). A server hosting many sessions gives each its own lane
	// so their rank timelines don't interleave in the viewer.
	TracePID int
	// TraceProcess names the TracePID lane in the viewer ("" means
	// "pace pipeline").
	TraceProcess string
	// Logger, when non-nil, receives structured lifecycle events
	// (checkpoints, recovery, resume seeding). Its handler must stamp
	// records from an injected telemetry clock if reproducible output
	// matters; nil discards.
	Logger *slog.Logger
}

// DefaultOptions returns the paper's operating point (cluster.DefaultConfig
// with align.DefaultScoring and align.DefaultCriteria) with the sequential
// engine.
func DefaultOptions() Options {
	cfg := cluster.DefaultConfig(1)
	return Options{
		Processors:    cfg.MP.Procs,
		Window:        cfg.Window,
		MinMatch:      cfg.Psi,
		BatchSize:     cfg.BatchSize,
		Match:         int(cfg.Scoring.Match),
		Mismatch:      int(cfg.Scoring.Mismatch),
		GapOpen:       int(cfg.Scoring.GapOpen),
		GapExtend:     int(cfg.Scoring.GapExtend),
		Band:          cfg.Band,
		MinOverlap:    int(cfg.Criteria.MinOverlap),
		MinIdentity:   cfg.Criteria.MinIdentity,
		MinScoreRatio: cfg.Criteria.MinScoreRatio,
	}
}

// Clustering is the result of Cluster.
type Clustering struct {
	// Labels assigns each input EST a dense cluster label in
	// [0, NumClusters).
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
	// Clusters lists the member indices of every cluster, by label.
	Clusters [][]int
	// Stats carries counters and phase timings.
	Stats Stats
}

// toConfig translates Options to the engine configuration.
func (o Options) toConfig() (cluster.Config, error) {
	if o.Simulated && o.Processors < 2 {
		// Processors == 1 selects the sequential engine, which has no
		// simulated machine: its phases would be wall time reported as
		// virtual.
		return cluster.Config{}, fmt.Errorf("pace: Simulated needs Processors >= 2 (a master and at least one slave), got %d", o.Processors)
	}
	cfg := cluster.DefaultConfig(o.Processors)
	cfg.Window = o.Window
	cfg.Psi = o.MinMatch
	cfg.BatchSize = o.BatchSize
	cfg.Scoring.Match = int32(o.Match)
	cfg.Scoring.Mismatch = int32(o.Mismatch)
	cfg.Scoring.GapOpen = int32(o.GapOpen)
	cfg.Scoring.GapExtend = int32(o.GapExtend)
	cfg.Band = o.Band
	cfg.Criteria.MinOverlap = int32(o.MinOverlap)
	cfg.Criteria.MinIdentity = o.MinIdentity
	cfg.Criteria.MinScoreRatio = o.MinScoreRatio
	if o.Simulated {
		cfg.MP = mp.DefaultSimConfig(o.Processors)
		cfg.MP.MeasureCompute = o.Stamp.IsZero()
	} else {
		cfg.MP = mp.Config{Procs: o.Processors, Mode: mp.ModeReal}
	}
	cfg.MP.Fault = o.Fault
	cfg.SlaveTimeout = o.SlaveTimeout
	cfg.Checkpoint = cluster.CheckpointConfig{
		Dir:      o.CheckpointDir,
		Interval: o.CheckpointInterval,
		FS:       o.FS,
	}
	if o.InitialLabels != nil {
		cfg.InitialLabels = make([]int32, len(o.InitialLabels))
		for i, l := range o.InitialLabels {
			cfg.InitialLabels[i] = int32(l)
		}
	}
	cfg.Metrics = o.Metrics
	cfg.Trace = o.Trace
	cfg.TracePID = o.TracePID
	cfg.TraceProcess = o.TraceProcess
	cfg.Log = o.Logger
	return cfg, nil
}

// parseESTs validates and converts the input sequences, into one array:
// a set copies them into its text, and then the array is freed whole.
func parseESTs(ests []string) ([]seq.Sequence, error) {
	n := 0
	for _, e := range ests {
		n += len(e)
	}
	out, all := make([]seq.Sequence, len(ests)), make(seq.Sequence, 0, n)
	for i, e := range ests {
		var err error
		if all, err = seq.AppendParse(all, e); err != nil {
			return nil, fmt.Errorf("pace: EST %d: %w", i, err)
		}
		if len(e) == 0 {
			return nil, fmt.Errorf("pace: EST %d is empty", i)
		}
		out[i] = all[len(all)-len(e) : len(all) : len(all)]
	}
	return out, nil
}

// Cluster partitions the ESTs (DNA strings over ACGT; case-insensitive)
// into gene-level clusters. It is a one-batch Session: callers expecting
// more ESTs later should keep a Session and Add batches as they arrive.
func Cluster(ests []string, opt Options) (*Clustering, error) {
	return ClusterContext(context.Background(), ests, opt)
}

// ClusterContext is Cluster bounded by a context: the engine polls ctx at
// phase boundaries and inside its dispatch loops and aborts with an error
// wrapping ctx.Err() when it is done — the hook a server needs to stop a
// run whose client disconnected or whose deadline passed.
func ClusterContext(ctx context.Context, ests []string, opt Options) (*Clustering, error) {
	s, err := NewSession(opt)
	if err != nil {
		return nil, err
	}
	return s.AddContext(ctx, ests)
}

// convertResult translates an engine result into the public Clustering.
func convertResult(res *cluster.Result) *Clustering {
	out := &Clustering{
		Labels:      make([]int, len(res.Labels)),
		NumClusters: res.NumClusters,
		Clusters:    make([][]int, res.NumClusters),
		Stats:       res.Stats,
	}
	for i, l := range res.Labels {
		out.Labels[i] = int(l)
		out.Clusters[l] = append(out.Clusters[l], i)
	}
	return out
}

// BuildReport assembles the machine-readable run report for a clustering
// outcome: the paper's Table-2-style component grouping (GST construction =
// partition + tree building, pair generation = the decreasing-depth sort,
// clustering = alignment), the per-rank load-balance rows, and — when
// opt.Metrics is set — a flattened registry snapshot. wall is the real
// elapsed time around Cluster; the virtual run-time is taken from the phase
// totals when opt.Simulated.
func BuildReport(cl *Clustering, opt Options, tool, dataset string, numESTs int, wall time.Duration) *RunReport {
	st := cl.Stats
	rep := &RunReport{
		Tool:    tool,
		Dataset: dataset,
		Params: map[string]string{
			"w":     strconv.Itoa(opt.Window),
			"psi":   strconv.Itoa(opt.MinMatch),
			"batch": strconv.Itoa(opt.BatchSize),
		},
		Procs:       opt.Processors,
		Simulated:   opt.Simulated,
		WallSeconds: wall.Seconds(),
		NumESTs:     numESTs,
		NumClusters: cl.NumClusters,
		Phases: []PhaseEntry{
			{Name: "gst-construction", Seconds: (st.Phases.Partition + st.Phases.Construct).Seconds()},
			{Name: "pair-generation", Seconds: st.Phases.Sort.Seconds()},
			{Name: "clustering", Seconds: st.Phases.Align.Seconds()},
			{Name: "total", Seconds: st.Phases.Total.Seconds()},
		},
	}
	if opt.Simulated {
		rep.VirtualSeconds = st.Phases.Total.Seconds()
	}
	for _, rs := range st.PerRank {
		rep.Ranks = append(rep.Ranks, RankEntry{
			Rank: rs.Rank, Role: rs.Role,
			PartitionSeconds: rs.Partition.Seconds(),
			ConstructSeconds: rs.Construct.Seconds(),
			PairgenSeconds:   rs.Sort.Seconds(),
			AlignSeconds:     rs.Align.Seconds(),
			TotalSeconds:     rs.Total.Seconds(),
			MsgsSent:         rs.MsgsSent, BytesSent: rs.BytesSent,
			MsgsRecv: rs.MsgsRecv, BytesRecv: rs.BytesRecv,
			RecvWaitSeconds: rs.RecvWait.Seconds(),
			PairsGenerated:  rs.PairsGenerated,
			PairsProcessed:  rs.PairsProcessed,
			PairsAccepted:   rs.PairsAccepted,
		})
	}
	rep.AttachCounters(opt.Metrics)
	rep.StampAt(opt.Stamp)
	return rep
}
