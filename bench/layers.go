package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pace"
	"pace/internal/mp"
	"pace/internal/serve"
	"pace/internal/vfs"
)

const (
	// pingPongs is the number of round trips mp.pingpong_ns averages over.
	pingPongs = 20000
	// ioRepeats is how often the save, load and FASTA probes repeat; each
	// reports its median.
	ioRepeats = 5
)

// tracedResult is the traced pass of one workload: every per-layer metric,
// the counters that must repeat exactly, and each layer's self time.
type tracedResult struct {
	Metrics map[string]float64
	// Exact holds, per counter, its value from the traced and from the
	// untraced shadow pass.
	Exact map[string][]float64
	// LayerSelf is, per layer, the summed self time of its spans in the
	// traced shadow pass, in seconds.
	LayerSelf map[string]float64
	checks
}

// pingPong is the round-trip time of an empty message between two ranks of
// the real transport.
func pingPong() (time.Duration, error) {
	const tag = 1
	var elapsed time.Duration
	err := mp.Run(mp.Config{Procs: 2, Mode: mp.ModeReal}, func(c *mp.Comm) error {
		peer := 1 - c.Rank()
		t := time.Now()
		for i := 0; i < pingPongs; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, tag, nil); err != nil {
					return err
				}
			}
			if _, err := c.Recv(peer, tag); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, tag, nil); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(t)
		}
		return nil
	})
	return elapsed / pingPongs, err
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// tracer is the state the stages of one traced pass share.
type tracer struct {
	*tracedResult
	w       workload
	in      *input
	opt     pace.Options // the sequential default every probe starts from
	tmpRoot string
	probes  *recorder
	root    int // the span every probe hangs under

	// What later stages need of earlier ones.
	untraced          time.Duration // wall of the untraced shadow pass
	shadowDigest      string        // partition of the shadow pipeline
	want              string        // partition of sequential pace.Cluster on the whole input
	seq, par, httpRun cost
}

// runTraced is the second, separately timed pass: it times calls into each
// layer's public functions on the workload's input and writes the spans as
// a Chrome trace. Every stage runs on every workload, so that each traced
// run reports every per-layer metric.
func runTraced(w workload, in *input, tmpRoot, tracePath string) (*tracedResult, error) {
	t := &tracer{
		tracedResult: &tracedResult{Metrics: map[string]float64{}, Exact: map[string][]float64{}, LayerSelf: map[string]float64{}},
		w:            w, in: in, opt: pace.DefaultOptions(), tmpRoot: tmpRoot,
	}
	shadowRec, err := t.traceLayers()
	if err != nil {
		return nil, err
	}
	t.probes = newRecorder(2)
	t.root = t.probes.begin("probes", "bench", -1)
	for _, stage := range []func() error{t.traceEngines, t.traceIngestAndStore} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	t.probes.end(t.root)

	// The collector's share of the workload's own call.
	own := t.seq
	switch {
	case w.Parallel:
		own = t.par
	case w.Ingest:
		own = t.httpRun
	}
	t.Metrics["runtime.gc_cycles"] = float64(own.GCCycles)
	t.Metrics["runtime.gc_pause_ms"] = float64(own.GCPause.Nanoseconds()) / 1e6
	t.Metrics["runtime.gc_cpu_fraction"] = own.GCCPUFraction

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(tracePath, shadowRec, t.probes); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return t.tracedResult, nil
}

// traceLayers runs the shadow pipeline, traced and then untraced, and
// derives the metrics of the sequential pipeline's layers.
func (t *tracer) traceLayers() (*recorder, error) {
	m, ests := t.Metrics, t.in.ests
	n := float64(len(ests))
	// A discarded pass goes first: the first pass of a process pays for heap
	// growth that neither of the compared passes should.
	if _, err := shadow(ests, t.opt, nil); err != nil {
		return nil, fmt.Errorf("shadow pipeline, warm-up: %w", err)
	}
	rec := newRecorder(1)
	on, err := shadow(ests, t.opt, rec)
	if err != nil {
		return nil, fmt.Errorf("shadow pipeline: %w", err)
	}
	off, err := shadow(ests, t.opt, nil)
	if err != nil {
		return nil, fmt.Errorf("shadow pipeline, untraced: %w", err)
	}
	t.untraced = off.Wall
	for layer, d := range layerSelf(rec.spans) {
		t.LayerSelf[layer] = d.Seconds()
	}
	m["seq.parse_s"] = rec.total("seq.parse").Seconds()
	m["suffix.partition_s"] = rec.total("suffix.partition").Seconds()
	m["suffix.build_s"] = rec.total("suffix.build").Seconds()
	m["suffix.allocs_per_est"] = float64(on.SuffixMallocs) / n
	m["suffix.bytes_per_suffix"] = ratio(float64(on.ForestLive), float64(on.Suffixes))
	m["suffix.nodes_per_suffix"] = ratio(float64(on.Forest.Nodes), float64(on.Suffixes))
	m["suffix.buckets"] = float64(on.Forest.Trees)
	m["suffix.nodes"] = float64(on.Forest.Nodes)
	m["pairgen.setup_s"] = rec.total("pairgen.setup").Seconds()
	next := rec.total("pairgen.next")
	m["pairgen.next_s"] = next.Seconds()
	m["pairgen.pairs_generated"] = float64(on.Generated)
	m["pairgen.ns_per_pair"] = ratio(float64(next.Nanoseconds()), float64(on.Generated))
	m["pairgen.allocs_per_est"] = float64(on.PairMallocs) / n
	extend := rec.total("align.extend")
	m["align.extend_s"] = extend.Seconds()
	m["align.calls"] = float64(on.Aligned)
	m["align.ns_per_call"] = ratio(float64(extend.Nanoseconds()), float64(on.Aligned))
	m["align.accept_ratio"] = ratio(float64(on.Accepted), float64(on.Aligned))
	m["unionfind.ops_s"] = replayUnionFind(len(ests), on.ops).Seconds()
	m["unionfind.skip_ratio"] = ratio(float64(on.Skipped), float64(on.Generated))
	m["cluster.shadow_wall_s"] = on.Wall.Seconds()
	m["trace.overhead_ratio"] = ratio(on.Wall.Seconds(), off.Wall.Seconds())
	t.Exact["pairgen.pairs_generated"] = []float64{float64(on.Generated), float64(off.Generated)}
	t.Exact["suffix.nodes"] = []float64{float64(on.Forest.Nodes), float64(off.Forest.Nodes)}
	t.Exact["unionfind.skip_ratio"] = []float64{m["unionfind.skip_ratio"], ratio(float64(off.Skipped), float64(off.Generated))}

	// Checked against the engine once traceEngines has run it.
	t.shadowDigest = digest(on.Labels)
	t.same("untraced shadow pipeline vs traced", digest(off.Labels), t.shadowDigest)
	return rec, nil
}

// cluster is one pace.Cluster call as a probe span.
func (t *tracer) cluster(name string, ests []string, opt pace.Options) (*pace.Clustering, cost, error) {
	var cl *pace.Clustering
	id := t.probes.begin(name, "cluster", t.root)
	c, err := timeCall(func() (err error) {
		cl, err = pace.Cluster(ests, opt)
		return err
	})
	t.probes.end(id)
	if err != nil {
		return nil, c, fmt.Errorf("%s: %w", name, err)
	}
	return cl, c, nil
}

// traceEngines times the engine whole: sequential, with a metrics registry,
// and on the real transport; then the transport alone.
func (t *tracer) traceEngines() error {
	m, ests := t.Metrics, t.in.ests
	seqCl, seqCost, err := t.cluster("pace.Cluster", ests, t.opt)
	if err != nil {
		return err
	}
	t.seq = seqCost
	t.want = digest(seqCl.Labels)
	t.same("shadow pipeline vs pace.Cluster", t.shadowDigest, t.want)
	m["cluster.engine_overhead_ratio"] = ratio((seqCost.Wall - t.untraced).Seconds(), seqCost.Wall.Seconds())
	ph := seqCl.Stats.Phases
	m["cluster.unattributed_ratio"] = 1 - ratio(float64(ph.Partition+ph.Construct+ph.Sort+ph.Align), float64(ph.Total))

	metricsOpt := t.opt
	metricsOpt.Metrics = pace.NewMetricsRegistry()
	_, metricsCost, err := t.cluster("pace.Cluster+metrics", ests, metricsOpt)
	if err != nil {
		return err
	}
	m["telemetry.metrics_overhead_ratio"] = ratio(metricsCost.Wall.Seconds(), seqCost.Wall.Seconds())

	parOpt := t.opt
	parOpt.Processors = processors()
	parCl, parCost, err := t.cluster("pace.Cluster parallel", ests, parOpt)
	if err != nil {
		return err
	}
	t.par = parCost
	t.same("parallel pace.Cluster vs sequential", digest(parCl.Labels), t.want)
	st := parCl.Stats
	m["cluster.master_idle_ratio"] = ratio(float64(st.MasterIdle), float64(st.Phases.Total))
	var maxWait, maxAlign, sumAlign time.Duration
	var slaves, msgs, bytes int64
	for _, r := range st.PerRank {
		msgs += r.MsgsSent
		bytes += r.BytesSent
		if r.Role != "slave" {
			continue
		}
		slaves++
		sumAlign += r.Align
		if r.RecvWait > maxWait {
			maxWait = r.RecvWait
		}
		if r.Align > maxAlign {
			maxAlign = r.Align
		}
	}
	m["cluster.slave_recv_wait_s"] = maxWait.Seconds()
	m["cluster.slave_align_imbalance"] = ratio(float64(maxAlign)*float64(slaves), float64(sumAlign))
	m["cluster.align_per_merge"] = ratio(float64(st.PairsProcessed), float64(st.Merges))
	m["mp.msgs"] = float64(msgs)
	m["mp.bytes_per_est"] = float64(bytes) / float64(len(ests))

	id := t.probes.begin("mp.pingpong", "mp", t.root)
	rtt, err := pingPong()
	t.probes.end(id)
	if err != nil {
		return fmt.Errorf("mp ping-pong: %w", err)
	}
	m["mp.pingpong_ns"] = float64(rtt.Nanoseconds())
	return nil
}

// traceIngestAndStore times the incremental path three ways on the ingest
// part of the input — bare session, manager, HTTP — and then the persistence
// of the final session: the write, and the read beside it.
func (t *tracer) traceIngestAndStore() error {
	m, probes := t.Metrics, t.probes
	part := t.w.ingestPart(t.in)
	oneShot, want := t.seq, t.want
	if len(part.ests) != len(t.in.ests) {
		cl, c, err := t.cluster("pace.Cluster ingest part", part.ests, t.opt)
		if err != nil {
			return err
		}
		oneShot, want = c, digest(cl.Labels)
	}

	sess, err := pace.NewSession(t.opt)
	if err != nil {
		return err
	}
	var rebuilt, reused int64
	pid := probes.begin("pace.Session.Add x12", "pace", t.root)
	sessCost, err := timeCall(func() error {
		for _, b := range batches(part.recs) {
			id := probes.begin("pace.Session.Add", "pace", pid)
			cl, err := sess.Add(pace.Sequences(b))
			probes.end(id)
			if err != nil {
				return err
			}
			rebuilt += cl.Stats.Incremental.BucketsRebuilt
			reused += cl.Stats.Incremental.BucketsReused
		}
		return nil
	})
	probes.end(pid)
	if err != nil {
		return fmt.Errorf("session add: %w", err)
	}
	t.same("pace.Session.Add vs one-shot", digest(sess.Labels()), want)
	m["pace.session_add_s"] = sessCost.Wall.Seconds()
	m["pace.incremental_overhead_ratio"] = ratio(sessCost.Wall.Seconds(), oneShot.Wall.Seconds())
	m["pace.buckets_rebuilt_ratio"] = ratio(float64(rebuilt), float64(rebuilt+reused))

	mgrDir, err := os.MkdirTemp(t.tmpRoot, "manager-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(mgrDir)
	mgr, err := serve.NewManager(serve.Config{Options: t.opt, DataDir: mgrDir})
	if err != nil {
		return err
	}
	if _, err := mgr.Create(context.Background(), rigSession, ""); err != nil {
		return err
	}
	pid = probes.begin("serve.Manager.Add x12", "serve", t.root)
	mgrCost, err := timeCall(func() error {
		return managerIngest(mgr, rigSession, part.recs)
	})
	probes.end(pid)
	if err != nil {
		return fmt.Errorf("manager add: %w", err)
	}
	_, mgrLabels, err := mgr.Labels(rigSession)
	if err != nil {
		return err
	}
	t.same("serve.Manager.Add vs one-shot", digest(mgrLabels), want)
	m["serve.manager_add_s"] = mgrCost.Wall.Seconds()

	rig, err := newIngestRig(t.tmpRoot, t.opt, part.recs)
	if err != nil {
		return err
	}
	defer rig.close()
	pid = probes.begin("http ingest x12", "serve", t.root)
	t.httpRun, err = timeCall(func() error {
		_, err := rig.ingest(&t.checks, probes, pid)
		return err
	})
	probes.end(pid)
	if err != nil {
		return fmt.Errorf("http ingest: %w", err)
	}
	httpLabels, err := rig.labels()
	if err != nil {
		return err
	}
	t.same("http ingest vs one-shot", digest(httpLabels), want)
	m["serve.http_overhead_s"] = (t.httpRun.Wall - mgrCost.Wall).Seconds()

	stateRoot, err := os.MkdirTemp(t.tmpRoot, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)
	var saveTimes, loadTimes, fastaRates []float64
	for i := 0; i < ioRepeats; i++ {
		dir := filepath.Join(stateRoot, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		id := probes.begin("serve.SaveState", "serve", t.root)
		err = serve.SaveState(vfs.OS{}, dir, sess, part.recs)
		probes.end(id)
		if err != nil {
			return fmt.Errorf("save state: %w", err)
		}
		saveTimes = append(saveTimes, probes.dur(id).Seconds())
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		m["serve.save_bytes"] = float64(size)

		id = probes.begin("serve.LoadState+Resume", "serve", t.root)
		state, err := serve.LoadState(dir, t.opt)
		var resumed *pace.Session
		if err == nil {
			resumed, err = state.Resume(t.opt)
		}
		probes.end(id)
		if err != nil {
			return fmt.Errorf("load state: %w", err)
		}
		loadTimes = append(loadTimes, probes.dur(id).Seconds())
		if i == 0 {
			t.same("resumed session vs one-shot", digest(resumed.Labels()), want)
		}

		var cw countingWriter
		id = probes.begin("pace.WriteFASTA", "fasta", t.root)
		err = pace.WriteFASTA(&cw, part.recs)
		probes.end(id)
		if err != nil {
			return fmt.Errorf("write fasta: %w", err)
		}
		fastaRates = append(fastaRates, float64(cw.n)/1e6/probes.dur(id).Seconds())
	}
	m["serve.save_state_s"] = median(saveTimes)
	m["serve.load_state_s"] = median(loadTimes)
	m["fasta.write_mb_per_s"] = median(fastaRates)
	return nil
}
