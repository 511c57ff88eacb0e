// Command pace clusters the ESTs in a FASTA file.
//
// Usage:
//
//	pace -in ests.fasta [-out clusters.tsv] [-p 4] [-sim] [-w 8] [-psi 20]
//
// The output is a TSV with one line per EST: record id, cluster label.
// A run summary (cluster count, pair statistics, phase times, and the
// paper-style phase / per-rank load-balance tables) goes to standard error.
//
// Observability: -metrics-addr serves Prometheus text and pprof over HTTP
// during the run; -trace writes a Chrome trace-event file with one timeline
// per rank; -report writes a machine-readable BENCH_*.json run report.
//
// Incremental clustering: -session dir persists the ESTs and partition in a
// directory; a later run with -session dir -in batch.fasta -add ingests the
// new batch incrementally — rebuilding only the GST buckets it touches and
// generating only pairs the batch can affect — and emits the TSV over every
// EST the session holds.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pace"
)

func main() {
	def := pace.DefaultOptions()
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "", "output TSV file (default stdout)")
	procs := flag.Int("p", 1, "number of ranks (1 = sequential, >=2 = master+slaves)")
	sim := flag.Bool("sim", false, "run on the simulated parallel machine (virtual time)")
	window := flag.Int("w", def.Window, "suffix bucketing window w")
	psi := flag.Int("psi", def.MinMatch, "promising pair threshold ψ (min maximal common substring)")
	batch := flag.Int("batch", def.BatchSize, "pairs per master-slave interaction")
	minOverlap := flag.Int("min-overlap", def.MinOverlap, "minimum accepted overlap columns")
	minIdentity := flag.Float64("min-identity", def.MinIdentity, "minimum accepted overlap identity")
	doTrim := flag.Bool("trim", false, "trim poly(A)/poly(T) tails before clustering")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. :9090)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file here (chrome://tracing, Perfetto)")
	reportPath := flag.String("report", "", "write a run-report JSON here ('auto' derives BENCH_pace_<stamp>.json)")
	chaosSpec := flag.String("chaos", "", "inject faults, e.g. 'crash=2:5,delay=0.1:2ms,seed=7' (see cmd docs)")
	slaveTimeout := flag.Duration("slave-timeout", 0, "master watchdog: fail if no slave reports within this window (0 = wait forever)")
	ckptDir := flag.String("checkpoint-dir", "", "periodically checkpoint clustering state into this directory")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "time between checkpoints, virtual under -sim (default 30s)")
	resume := flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir, skipping completed merges")
	sessionDir := flag.String("session", "", "persistent session directory (session.fasta + pace.ckpt) for incremental clustering")
	addBatch := flag.Bool("add", false, "ingest -in as a new batch into the -session directory, re-clustering incrementally")
	stampStr := flag.String("stamp", "", "fix the report timestamp (RFC 3339), zero wall_seconds and, with -sim, freeze the simulated clock, for byte-reproducible reports")
	flag.Parse()

	if err := validateFlags(flagValues{
		in: *in, stamp: *stampStr,
		ckptDir: *ckptDir, ckptInterval: *ckptInterval,
		resume: *resume, session: *sessionDir, add: *addBatch,
	}); err != nil {
		usage(err)
	}

	opt := def
	opt.Processors = *procs
	opt.Simulated = *sim
	if *stampStr != "" {
		opt.Stamp, _ = time.Parse(time.RFC3339, *stampStr) // validated above
	}
	opt.Window = *window
	opt.MinMatch = *psi
	opt.BatchSize = *batch
	opt.MinOverlap = *minOverlap
	opt.MinIdentity = *minIdentity
	opt.SlaveTimeout = *slaveTimeout
	opt.CheckpointDir = *ckptDir
	opt.CheckpointInterval = *ckptInterval
	// The library owns every range check; a value it refuses is a usage
	// error, reported before any input is read.
	if _, err := pace.NewSession(opt); err != nil {
		usage(err)
	}
	if *chaosSpec != "" {
		plan, err := pace.ParseFaultPlan(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		opt.Fault = plan
		fmt.Fprintf(os.Stderr, "pace: chaos plan active: %s\n", *chaosSpec)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	recs, err := pace.ReadFASTA(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("no records in %s", *in))
	}

	seqs := pace.Sequences(recs)
	if *doTrim {
		trimmed, st, err := pace.Trim(seqs, pace.TrimOptions{})
		if err != nil {
			fatal(err)
		}
		seqs = trimmed
		fmt.Fprintf(os.Stderr, "pace: trimmed %d/%d reads (%d chars)\n",
			st.Trimmed, st.Reads, st.CharsRemoved)
	}

	if *resume {
		ck, err := pace.LoadCheckpoint(*ckptDir)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		if err := ck.Validate(len(seqs), opt.Window, opt.MinMatch); err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		opt.InitialLabels = pace.ResumeLabels(ck)
		fmt.Fprintf(os.Stderr, "pace: resuming from checkpoint seq %d (%d pairs already processed, %d merges done)\n",
			ck.Seq, ck.PairsProcessed, ck.Merges)
	}

	// Attach telemetry sinks. The registry is also created for -report
	// alone, so the report's counter snapshot is populated.
	if *metricsAddr != "" || *reportPath != "" {
		opt.Metrics = pace.NewMetricsRegistry()
		pace.RegisterBuildInfo(opt.Metrics)
	}
	if *metricsAddr != "" {
		srv, err := pace.ServeMetrics(*metricsAddr, opt.Metrics)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pace: serving metrics on http://%s/metrics\n", srv.Addr())
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		opt.Trace = pace.NewTraceWriter(traceFile)
	}

	t0 := time.Now()
	var cl *pace.Clustering
	if *sessionDir != "" {
		cl, recs, err = runSession(*sessionDir, *addBatch, recs, seqs, opt)
	} else {
		cl, err = pace.Cluster(seqs, opt)
	}
	wall := time.Since(t0)
	if err != nil {
		fatal(err)
	}
	if opt.Trace != nil {
		if err := opt.Trace.Close(); err != nil {
			fatal(fmt.Errorf("trace stream: %w (%d events dropped; %s is incomplete)",
				err, opt.Trace.Dropped(), *tracePath))
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pace: wrote trace to %s (%d events)\n", *tracePath, opt.Trace.Events())
	}

	dst := os.Stdout
	if *out != "" {
		dst, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer dst.Close()
	}
	w := bufio.NewWriter(dst)
	for i, rec := range recs {
		fmt.Fprintf(w, "%s\t%d\n", rec.ID, cl.Labels[i])
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}

	st := cl.Stats
	fmt.Fprintf(os.Stderr, "pace: %d ESTs -> %d clusters\n", len(recs), cl.NumClusters)
	fmt.Fprintf(os.Stderr, "pace: pairs generated=%d processed=%d accepted=%d skipped=%d\n",
		st.PairsGenerated, st.PairsProcessed, st.PairsAccepted, st.PairsSkipped)
	if rec := st.Recovery; rec.RanksLost > 0 {
		fmt.Fprintf(os.Stderr, "pace: recovered from %d lost rank(s): %d grant slots reclaimed, %d pairs requeued, %d shards reassigned\n",
			rec.RanksLost, rec.GrantsReclaimed, rec.PairsRequeued, rec.ShardsReassigned)
	}
	if rec := st.Recovery; rec.Checkpoints > 0 {
		fmt.Fprintf(os.Stderr, "pace: wrote %d checkpoint(s) (%d bytes total) to %s\n",
			rec.Checkpoints, rec.CheckpointBytes, *ckptDir)
	}
	if rec := st.Recovery; rec.SeedMerges > 0 {
		fmt.Fprintf(os.Stderr, "pace: resume seeded %d merges from the checkpoint\n", rec.SeedMerges)
	}
	fmt.Fprintf(os.Stderr, "pace: phases partition=%v construct=%v sort=%v align=%v total=%v\n",
		st.Phases.Partition, st.Phases.Construct, st.Phases.Sort, st.Phases.Align, st.Phases.Total)

	rep := pace.BuildReport(cl, opt, "pace", *in, len(recs), wall)
	fmt.Fprint(os.Stderr, rep.FormatPhaseTable())
	if t := rep.FormatRankTable(); t != "" {
		fmt.Fprint(os.Stderr, t)
	}
	if *reportPath != "" {
		path := *reportPath
		if path == "auto" {
			path = pace.BenchFileName("pace", opt.Stamp)
		}
		if err := rep.WriteJSON(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pace: wrote run report to %s\n", path)
	}
}

// usage reports a flag error the way flag does: the message, the usage
// text, exit status 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(1)
}

// errLine renders err under one "pace: " prefix; the library's errors
// already carry it.
func errLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "pace: ") {
		msg = "pace: " + msg
	}
	return msg
}
