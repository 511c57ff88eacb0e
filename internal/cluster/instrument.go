package cluster

import (
	"fmt"
	"time"

	"pace/internal/pairgen"
	"pace/internal/suffix"
	"pace/internal/telemetry"
)

// Metric families exported by the clustering engine. Each maps to a measured
// quantity of the paper's evaluation (§4): the pairs-by-MCS-length
// distribution behind Figure 7, the WORKBUF occupancy and grant-E series
// behind the §3.3 flow-control discussion, and the per-rank traffic behind
// the Table 3 load-balance story.
const (
	mPairsGenerated = "pace_pairs_generated_total"
	mPairsProcessed = "pace_pairs_processed_total"
	mPairsAccepted  = "pace_pairs_accepted_total"
	mPairsSkipped   = "pace_pairs_skipped_total"
	mMerges         = "pace_cluster_merges_total"
	mMCSLen         = "pace_pair_mcs_length"
	mBatchNs        = "pace_pairgen_batch_ns"
	mGrantE         = "pace_cluster_grant_e"
	mWorkbuf        = "pace_workbuf_occupancy"
	mWorkbufHW      = "pace_workbuf_high_water"
	mBucketSize     = "pace_suffix_bucket_size"
	mLoadSkew       = "pace_suffix_load_skew"

	mRanksLost        = "pace_recovery_ranks_lost_total"
	mGrantsReclaimed  = "pace_recovery_grants_reclaimed_total"
	mPairsRequeued    = "pace_recovery_pairs_requeued_total"
	mShardsReassigned = "pace_recovery_shards_reassigned_total"
	mSeedMerges       = "pace_resume_seeded_merges"
	mCkptWrites       = "pace_checkpoint_writes_total"
	mCkptBytes        = "pace_checkpoint_bytes"
	mCkptNs           = "pace_checkpoint_write_ns"

	mIncrBucketsRebuilt = "pace_incremental_buckets_rebuilt"
	mIncrBucketsReused  = "pace_incremental_buckets_reused"
	mIncrFreshPairs     = "pace_incremental_fresh_pairs_total"
	mIncrStale          = "pace_incremental_stale_suppressed_total"

	mMasterIdle = "pace_master_recv_wait_ns"
)

// probes is the engine's live-instrumentation bundle: pointers resolved once
// from the registry so hot paths update atomics only. Built over a nil
// registry every handle is nil, which telemetry treats as a disabled sink.
type probes struct {
	reg *telemetry.Registry

	generated *telemetry.Counter
	processed *telemetry.Counter
	accepted  *telemetry.Counter
	skipped   *telemetry.Counter
	merges    *telemetry.Counter

	mcsLen  *telemetry.Histogram
	batchNs *telemetry.Histogram

	grantE    *telemetry.Histogram
	workbuf   *telemetry.Gauge
	workbufHW *telemetry.Gauge

	bucketSize *telemetry.Histogram
	loadSkew   *telemetry.FloatGauge

	ranksLost        *telemetry.Counter
	grantsReclaimed  *telemetry.Counter
	pairsRequeued    *telemetry.Counter
	shardsReassigned *telemetry.Counter
	seedMerges       *telemetry.Gauge
	ckptWrites       *telemetry.Counter
	ckptBytes        *telemetry.Gauge
	ckptNs           *telemetry.Histogram

	incrRebuilt *telemetry.Gauge
	incrReused  *telemetry.Gauge
	incrFresh   *telemetry.Counter
	incrStale   *telemetry.Counter

	masterIdle *telemetry.Gauge
}

func newProbes(reg *telemetry.Registry) *probes {
	reg.Help(mPairsGenerated, "Canonical promising pairs emitted by the generators.")
	reg.Help(mPairsProcessed, "Pair alignments computed.")
	reg.Help(mPairsAccepted, "Alignments passing the merge criteria.")
	reg.Help(mPairsSkipped, "Pairs pruned because their ESTs already shared a cluster.")
	reg.Help(mMerges, "Union operations that joined two clusters.")
	reg.Help(mMCSLen, "Maximal-common-substring length of generated pairs.")
	reg.Help(mBatchNs, "Latency of one pair-generation batch, nanoseconds.")
	reg.Help(mGrantE, "Flow-control grant E per master-slave interaction.")
	reg.Help(mWorkbuf, "Pairs currently buffered in the master's WORKBUF.")
	reg.Help(mWorkbufHW, "High-water mark of WORKBUF occupancy.")
	reg.Help(mBucketSize, "Suffixes per non-empty GST bucket.")
	reg.Help(mLoadSkew, "Redistribution skew: max worker load / mean worker load.")
	reg.Help(mRanksLost, "Slave ranks that died mid-protocol and were recovered from.")
	reg.Help(mGrantsReclaimed, "Outstanding WORKBUF grant slots reclaimed from dead slaves.")
	reg.Help(mPairsRequeued, "Dispatched pairs requeued to survivors after a slave death.")
	reg.Help(mShardsReassigned, "Bucket shards reassigned to survivors for rebuild.")
	reg.Help(mSeedMerges, "Union operations performed while seeding from initial labels.")
	reg.Help(mCkptWrites, "Checkpoint snapshots written.")
	reg.Help(mCkptBytes, "Size of the most recent checkpoint snapshot, bytes.")
	reg.Help(mCkptNs, "Checkpoint write latency, nanoseconds.")
	reg.Help(mIncrBucketsRebuilt, "GST buckets the latest incremental batch touched and rebuilt.")
	reg.Help(mIncrBucketsReused, "Non-empty GST buckets the latest incremental batch left untouched.")
	reg.Help(mIncrFreshPairs, "Promising pairs emitted by fresh-only incremental runs.")
	reg.Help(mIncrStale, "Old-by-old pairs suppressed inside rebuilt buckets (already judged).")
	reg.Help(mMasterIdle, "Master time blocked in Recv waiting for slave reports, nanoseconds.")
	return &probes{
		reg:        reg,
		generated:  reg.Counter(mPairsGenerated),
		processed:  reg.Counter(mPairsProcessed),
		accepted:   reg.Counter(mPairsAccepted),
		skipped:    reg.Counter(mPairsSkipped),
		merges:     reg.Counter(mMerges),
		mcsLen:     reg.Histogram(mMCSLen, []int64{12, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128, 192, 256, 384, 512}),
		batchNs:    reg.Histogram(mBatchNs, telemetry.ExpBounds(1000, 4, 12)),
		grantE:     reg.Histogram(mGrantE, []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		workbuf:    reg.Gauge(mWorkbuf),
		workbufHW:  reg.Gauge(mWorkbufHW),
		bucketSize: reg.Histogram(mBucketSize, telemetry.ExpBounds(1, 2, 20)),
		loadSkew:   reg.FloatGauge(mLoadSkew),

		ranksLost:        reg.Counter(mRanksLost),
		grantsReclaimed:  reg.Counter(mGrantsReclaimed),
		pairsRequeued:    reg.Counter(mPairsRequeued),
		shardsReassigned: reg.Counter(mShardsReassigned),
		seedMerges:       reg.Gauge(mSeedMerges),
		ckptWrites:       reg.Counter(mCkptWrites),
		ckptBytes:        reg.Gauge(mCkptBytes),
		ckptNs:           reg.Histogram(mCkptNs, telemetry.ExpBounds(1000, 4, 12)),

		incrRebuilt: reg.Gauge(mIncrBucketsRebuilt),
		incrReused:  reg.Gauge(mIncrBucketsReused),
		incrFresh:   reg.Counter(mIncrFreshPairs),
		incrStale:   reg.Counter(mIncrStale),

		masterIdle: reg.Gauge(mMasterIdle),
	}
}

// recordIncremental publishes a batch run's incremental tallies (set once at
// run end, outside the hot path).
func (pr *probes) recordIncremental(inc IncrementalStats) {
	pr.incrRebuilt.Set(inc.BucketsRebuilt)
	pr.incrReused.Set(inc.BucketsReused)
	pr.incrFresh.Add(inc.FreshPairs)
	pr.incrStale.Add(inc.StaleSuppressed)
}

// countBatch adds one alignBatch call's pairs processed, accepted and
// skipped to the live counters.
func (pr *probes) countBatch(n batchCounts) {
	pr.processed.Add(n.processed)
	pr.accepted.Add(n.accepted)
	pr.skipped.Add(n.skipped)
}

// observer builds the pairgen hooks backed by this probe set, timing
// batches against clk (the engine's time base — virtual on ranks, wall on
// the sequential path; nil falls back to wall time inside pairgen).
func (pr *probes) observer(clk func() time.Duration) pairgen.Observer {
	return pairgen.Observer{MCSLen: pr.mcsLen, BatchNs: pr.batchNs, Clock: clk, Generated: pr.generated}
}

// observeBuckets records the non-empty bucket sizes and the redistribution
// skew of the global histogram (one-time, on the master).
func (pr *probes) observeBuckets(global []int64, loads []int64) {
	for _, n := range global {
		if n > 0 {
			pr.bucketSize.Observe(n)
		}
	}
	pr.loadSkew.Set(suffix.Skew(loads))
}

// recordComm publishes a rank's final communication stats as per-rank
// gauges (set once at run end, outside the hot path).
func (pr *probes) recordComm(rs RankStats) {
	l := telemetry.Rank(rs.Rank)
	pr.reg.Gauge("pace_mp_msgs_sent", l).Set(rs.MsgsSent)
	pr.reg.Gauge("pace_mp_bytes_sent", l).Set(rs.BytesSent)
	pr.reg.Gauge("pace_mp_msgs_recv", l).Set(rs.MsgsRecv)
	pr.reg.Gauge("pace_mp_bytes_recv", l).Set(rs.BytesRecv)
	pr.reg.Gauge("pace_mp_recv_wait_ns", l).Set(int64(rs.RecvWait))
	pr.reg.Gauge("pace_mp_collective_ops", l).Set(rs.CollectiveOps)
	pr.reg.Gauge("pace_mp_collective_ns", l).Set(int64(rs.CollectiveTime))
}

// traceThreadName labels a rank's trace timeline on the run's trace process
// lane.
func traceThreadName(tw *telemetry.TraceWriter, pid, rank int, role string) {
	tw.ThreadName(pid, rank, fmt.Sprintf("rank %d (%s)", rank, role))
}
