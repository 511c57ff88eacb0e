package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceWriter streams Chrome trace-event-format events, one JSON object per
// line inside a top-level array, so the output is simultaneously JSONL-ish
// (line-oriented, appendable) and a valid trace file loadable in
// chrome://tracing and Perfetto once Close writes the closing bracket.
// (Both viewers also tolerate a missing bracket after a crash.)
//
// Timestamps are caller-supplied durations from an arbitrary origin — wall
// time for real runs, per-rank virtual clocks for simulated runs — encoded
// in the format's microseconds. The conventional mapping in this repo:
// pid 0 = the pace pipeline, tid = mp rank.
//
// A nil *TraceWriter is a disabled trace: every event method returns before
// it builds the event.
type TraceWriter struct {
	mu      sync.Mutex
	w       io.Writer
	n       int
	dropped int
	closed  bool
	err     error
}

// traceEvent is the wire form of one event; field order fixed for
// deterministic golden tests.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceWriter starts a trace stream on w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{w: w}
	_, t.err = io.WriteString(w, "[\n")
	return t
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (t *TraceWriter) emit(ev traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.closed {
		// Emits after the first failure (or after Close) are not written;
		// count them so callers can report how much of the trace was lost
		// instead of silently shipping a partial file.
		t.dropped++
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		t.dropped++
		return
	}
	if t.n > 0 {
		if _, t.err = io.WriteString(t.w, ",\n"); t.err != nil {
			return
		}
	}
	if _, t.err = t.w.Write(b); t.err != nil {
		return
	}
	t.n++
}

// Span records a complete ("X") event covering [start, start+dur) on the
// given pid/tid timeline.
func (t *TraceWriter) Span(pid, tid int, name, cat string, start, dur time.Duration) {
	if t == nil {
		return
	}
	d := usec(dur)
	t.emit(traceEvent{Name: name, Cat: cat, Ph: "X", TS: usec(start), Dur: &d, PID: pid, TID: tid})
}

// SpanArgs is Span with viewer-visible args (e.g. a request id), shown in
// the event's detail pane. The map is marshaled immediately; the caller may
// reuse it.
func (t *TraceWriter) SpanArgs(pid, tid int, name, cat string, start, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	d := usec(dur)
	t.emit(traceEvent{Name: name, Cat: cat, Ph: "X", TS: usec(start), Dur: &d, PID: pid, TID: tid, Args: args})
}

// Counter records a counter ("C") event: the viewer plots value over time.
func (t *TraceWriter) Counter(pid int, name string, ts time.Duration, value int64) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: name, Ph: "C", TS: usec(ts), PID: pid, TID: 0,
		Args: map[string]any{"value": value}})
}

// ThreadName labels a (pid, tid) timeline in the viewer.
func (t *TraceWriter) ThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: "thread_name", Ph: "M", TS: 0, PID: pid, TID: tid,
		Args: map[string]any{"name": name}})
}

// ProcessName labels a pid in the viewer.
func (t *TraceWriter) ProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: "process_name", Ph: "M", TS: 0, PID: pid, TID: 0,
		Args: map[string]any{"name": name}})
}

// Events returns the number of events emitted so far.
func (t *TraceWriter) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were discarded because a write/encode
// error had already poisoned the stream (or it was closed). Callers should
// log a non-zero count alongside Close's error instead of dropping it.
func (t *TraceWriter) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Close terminates the JSON array. It does not close the underlying writer.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if t.closed {
		return fmt.Errorf("telemetry: trace writer already closed")
	}
	t.closed = true
	if _, err := io.WriteString(t.w, "\n]\n"); err != nil {
		t.err = err
		return err
	}
	return nil
}
