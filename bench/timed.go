package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"pace"
	"pace/internal/metrics"
)

const (
	// minRepeats is the fewest timed repeats a run reports a median over.
	minRepeats = 3
	// maxRepeats stops a run whose call is so short that the time budget
	// would never be the limit.
	maxRepeats = 25
	// Input generation is timed for setup_s at least minSetupRepeats times,
	// and on until setupBudget has been spent or maxSetupRepeats reached.
	minSetupRepeats = 5
	maxSetupRepeats = 25
	setupBudget     = time.Second
	// spaceGCPercent is GOGC during the space pass: a collection whenever
	// the heap has grown a tenth, so that some collection sees the live heap
	// within a tenth of its peak. At the default 100 the collections are so
	// far apart that the sampled peak varied by a quarter between runs.
	spaceGCPercent = 10
	// heapSampleEvery is the period of the live-heap sampler; collections
	// of a heap worth measuring are further apart than this.
	heapSampleEvery = 10 * time.Millisecond
)

// heapSampler tracks the maximum of /gc/heap/live:bytes, the heap the last
// collection found reachable, while a timed call runs.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func readLiveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// readCPU returns the CPU seconds the collector has used and the CPU seconds
// the process has had available, as the runtime estimates them.
func readCPU() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 || s[1].Value.Kind() != rtmetrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), peak: readLiveHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				if v := readLiveHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stop ends the sampler, takes a last sample and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	if v := readLiveHeap(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// cost is what one call took, measured from outside it. timeCall fills in
// everything but PeakLive, spaceCall only PeakLive.
type cost struct {
	Wall     time.Duration
	Mallocs  uint64
	Bytes    uint64
	PeakLive uint64
	// The collector's work during the call.
	GCCycles      uint32
	GCPause       time.Duration
	GCCPUFraction float64
}

// timeCall collects garbage, then runs fn under the wall clock and the
// allocation and collector counters. Nothing of the benchmark's runs beside
// fn.
func timeCall(fn func() error) (cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := readCPU()
	t := time.Now()
	err := fn()
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := readCPU()
	return cost{
		Wall: wall, Mallocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles: m1.NumGC - m0.NumGC, GCPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		GCCPUFraction: ratio(gc1-gc0, cpu1-cpu0),
	}, err
}

// spaceCall runs fn once, untimed, with collections close together and the
// live-heap sampler beside it, and returns the peak live heap. It doubles as
// the warm-up of the timed repeats.
func spaceCall(fn func() error) (cost, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(spaceGCPercent))
	runtime.GC()
	hs := startHeapSampler()
	err := fn()
	return cost{PeakLive: hs.stop()}, err
}

// timedResult is the timed pass of one workload: one sample per repeat for
// every end-to-end metric, and the verified partition.
type timedResult struct {
	Repeats   int
	Samples   map[string][]float64
	Digest    string
	Clusters  int
	FirstLast [2]float64 // median latency of the first and the last ingest batch
	checks
}

func (t *timedResult) add(name string, v float64) {
	t.Samples[name] = append(t.Samples[name], v)
}

// runTimed generates the workload's input from the seed, makes the space
// pass, and then repeats the timed call until seconds have been measured, at
// least minRepeats times. Verification runs after the repeats and is untimed.
func runTimed(w workload, seed int64, seconds float64, tmpRoot string, golden map[string]string) (*timedResult, *input, error) {
	res := &timedResult{Samples: map[string][]float64{}}
	var in *input
	var genTimes []float64
	var spent time.Duration
	for r := 0; r < minSetupRepeats || (r < maxSetupRepeats && spent < setupBudget); r++ {
		runtime.GC()
		t := time.Now()
		g, err := w.generate(seed)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t)
		spent += d
		genTimes = append(genTimes, d.Seconds())
		in = g
	}
	n := float64(len(in.ests))
	opt := w.options()

	var rigTimes []float64
	var firstBatch, lastBatch []float64
	var digests []string
	var labels []int

	// call runs the workload's operation once under measure and returns
	// its partition; set-up and verification stay outside measure.
	call := func(measure func(func() error) (cost, error)) (cost, []int, error) {
		if !w.Ingest {
			var cl *pace.Clustering
			c, err := measure(func() (err error) {
				cl, err = pace.Cluster(in.ests, opt)
				return err
			})
			if err != nil {
				res.fail("pace.Cluster: %v", err)
				return c, nil, err
			}
			res.ok()
			return c, cl.Labels, nil
		}
		t := time.Now()
		rig, err := newIngestRig(tmpRoot, opt, in.recs)
		if err != nil {
			return cost{}, nil, err
		}
		defer rig.close()
		rigTimes = append(rigTimes, time.Since(t).Seconds())
		var out *ingestOut
		c, err := measure(func() (err error) {
			out, err = rig.ingest(&res.checks, nil, -1)
			return err
		})
		if err != nil {
			return c, nil, err
		}
		firstBatch = append(firstBatch, out.latency[0].Seconds())
		lastBatch = append(lastBatch, out.latency[len(out.latency)-1].Seconds())
		l, err := rig.labels()
		return c, l, err
	}

	space, l, err := call(spaceCall)
	if err != nil {
		return res, in, err
	}
	res.add("peak_live_heap_mb", float64(space.PeakLive)/(1<<20))
	digests = append(digests, digest(l))
	firstBatch, lastBatch = nil, nil
	start := time.Now()
	for r := 0; r < maxRepeats && (r < minRepeats || time.Since(start).Seconds() < seconds); r++ {
		c, l, err := call(timeCall)
		if err != nil {
			return res, in, err
		}
		res.Repeats++
		res.add("wall_s", c.Wall.Seconds())
		res.add("allocs_per_est", float64(c.Mallocs)/n)
		res.add("alloc_bytes_per_est", float64(c.Bytes)/n)
		labels = l
		digests = append(digests, digest(l))
	}
	if w.Ingest {
		res.Samples["last_batch_s"] = lastBatch
		res.FirstLast = [2]float64{median(firstBatch), median(lastBatch)}
	} else {
		// One pace.Cluster call is a one-batch session: its only batch is
		// its last.
		res.Samples["last_batch_s"] = res.Samples["wall_s"]
	}
	res.add("setup_s", median(genTimes)+median(rigTimes))

	res.Digest = digests[0]
	for r, d := range digests[1:] {
		res.same(fmt.Sprintf("repeat %d vs the space pass", r+1), d, res.Digest)
	}
	if w.Parallel || w.Ingest {
		cl, err := pace.Cluster(in.ests, pace.DefaultOptions())
		if err != nil {
			res.fail("sequential reference: %v", err)
		} else {
			res.same("vs one-shot sequential pace.Cluster", res.Digest, digest(cl.Labels))
		}
	}
	if golden != nil {
		res.same("vs golden.json", res.Digest, golden[w.Name])
	}
	ari, err := adjustedRand(labels, in.truth)
	if err != nil {
		return res, in, err
	}
	res.add("ari", ari)
	res.Clusters = metrics.NumClusters(toInt32(labels))
	return res, in, nil
}
