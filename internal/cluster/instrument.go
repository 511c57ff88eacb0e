package cluster

import (
	"fmt"

	"pace/internal/suffix"
	"pace/internal/telemetry"
)

// Metric families exported by the clustering engine: the live views of a
// run's progress (pairs generated and processed), of the §3.3 flow control
// (WORKBUF's high-water mark), of the §3.1 bucket assignment (bucket sizes
// and load skew), of the §4.2 master-utilization argument (master idle) and
// of an incremental batch. Every other tally is a Stats field.
const (
	mPairsGenerated = "pace_pairs_generated_total"
	mPairsProcessed = "pace_pairs_processed_total"
	mWorkbufHW      = "pace_workbuf_high_water"
	mBucketSize     = "pace_suffix_bucket_size"
	mLoadSkew       = "pace_suffix_load_skew"

	mIncrBucketsRebuilt = "pace_incremental_buckets_rebuilt"
	mIncrFreshPairs     = "pace_incremental_fresh_pairs_total"
	mIncrStale          = "pace_incremental_stale_suppressed_total"

	mMasterIdle = "pace_master_recv_wait_ns"
)

// probes is the engine's live-instrumentation bundle: pointers resolved once
// from the registry so hot paths update atomics only. Built over a nil
// registry every handle is nil, which telemetry treats as a disabled sink.
type probes struct {
	generated *telemetry.Counter
	processed *telemetry.Counter
	workbufHW *telemetry.Gauge

	bucketSize *telemetry.Histogram
	loadSkew   *telemetry.FloatGauge

	incrRebuilt *telemetry.Gauge
	incrFresh   *telemetry.Counter
	incrStale   *telemetry.Counter

	masterIdle *telemetry.Gauge
}

func newProbes(reg *telemetry.Registry) *probes {
	reg.Help(mPairsGenerated, "Canonical promising pairs emitted by the generators.")
	reg.Help(mPairsProcessed, "Pair alignments computed.")
	reg.Help(mWorkbufHW, "High-water mark of WORKBUF occupancy.")
	reg.Help(mBucketSize, "Suffixes per non-empty GST bucket.")
	reg.Help(mLoadSkew, "Load skew after bucket assignment: max worker load / mean worker load.")
	reg.Help(mIncrBucketsRebuilt, "GST buckets the latest incremental batch touched and rebuilt.")
	reg.Help(mIncrFreshPairs, "Promising pairs emitted by fresh-only incremental runs.")
	reg.Help(mIncrStale, "Old-by-old pairs suppressed inside rebuilt buckets (already judged).")
	reg.Help(mMasterIdle, "Master time blocked in Recv waiting for slave reports, nanoseconds.")
	return &probes{
		generated:  reg.Counter(mPairsGenerated),
		processed:  reg.Counter(mPairsProcessed),
		workbufHW:  reg.Gauge(mWorkbufHW),
		bucketSize: reg.Histogram(mBucketSize, telemetry.ExpBounds(1, 2, 20)),
		loadSkew:   reg.FloatGauge(mLoadSkew),

		incrRebuilt: reg.Gauge(mIncrBucketsRebuilt),
		incrFresh:   reg.Counter(mIncrFreshPairs),
		incrStale:   reg.Counter(mIncrStale),

		masterIdle: reg.Gauge(mMasterIdle),
	}
}

// recordIncremental publishes a batch run's incremental tallies (set once at
// run end, outside the hot path).
func (pr *probes) recordIncremental(inc IncrementalStats) {
	pr.incrRebuilt.Set(inc.BucketsRebuilt)
	pr.incrFresh.Add(inc.FreshPairs)
	pr.incrStale.Add(inc.StaleSuppressed)
}

// observeBuckets records the non-empty bucket sizes and the load skew of
// the global histogram's assignment (one-time, on the master).
func (pr *probes) observeBuckets(global []int64, loads []int64) {
	for _, n := range global {
		if n > 0 {
			pr.bucketSize.Observe(n)
		}
	}
	pr.loadSkew.Set(suffix.Skew(loads))
}

// traceThreadName labels a rank's trace timeline on the run's trace process
// lane.
func traceThreadName(tw *telemetry.TraceWriter, pid, rank int, role string) {
	tw.ThreadName(pid, rank, fmt.Sprintf("rank %d (%s)", rank, role))
}
