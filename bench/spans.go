package main

import (
	"bufio"
	"os"
	"sort"
	"time"

	"pace/internal/telemetry"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration
	End    time.Duration
	Parent int // index into recorder.spans; -1 for a root
	RunID  int
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing and reads no clock, which is how the shadow pipeline runs
// with tracing off.
type recorder struct {
	t0    time.Time
	runID int
	spans []span
}

func newRecorder(runID int) *recorder {
	// Preallocated so that recording allocates nothing while a layer's
	// allocations are being counted.
	return &recorder{t0: time.Now(), runID: runID, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name, layer string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, RunID: r.runID})
	id := len(r.spans) - 1
	r.spans[id].Start = time.Since(r.t0)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// total is the summed duration of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// dur is the duration of one span.
func (r *recorder) dur(id int) time.Duration { return r.spans[id].End - r.spans[id].Start }

// selfTimes returns each span's duration minus the part its direct children
// cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}

// writeChromeTrace writes the recorders' spans as one Chrome trace file: one
// process lane per run id, spans nested by time on a single thread lane.
func writeChromeTrace(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tw := telemetry.NewTraceWriter(bw)
	for _, r := range recs {
		if r == nil || len(r.spans) == 0 {
			continue
		}
		tw.ProcessName(r.runID, r.spans[0].Name)
		// The viewer nests same-lane spans by start time, outermost first.
		order := make([]int, len(r.spans))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return r.spans[order[a]].Start < r.spans[order[b]].Start
		})
		for _, i := range order {
			s := r.spans[i]
			tw.SpanArgs(r.runID, 0, s.Name, s.Layer, s.Start, s.End-s.Start,
				map[string]any{"parent": s.Parent, "run_id": s.RunID})
		}
	}
	err = tw.Close()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
