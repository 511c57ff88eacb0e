package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// crashTrace emits a deterministic event stream and "crashes" before Close:
// the closing bracket is never written, exactly the file a SIGKILLed server
// leaves behind.
func crashTrace() []byte {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(1, "paced server")
	tw.ThreadName(1, 0, "libA")
	tw.SpanArgs(1, 0, "POST /v1/sessions/{id}/batches", "http", 0, 3*time.Millisecond,
		map[string]any{"request_id": "req-000001"})
	tw.Span(1, 0, "batch 1", "engine", 500*time.Microsecond, 2*time.Millisecond)
	tw.Counter(1, "admission_waiting", time.Millisecond, 2)
	return buf.Bytes()
}

// recoverTraceLines is what every tolerant viewer (Perfetto, chrome://tracing)
// does with a truncated trace: keep each syntactically complete line, drop
// the torn tail. The test mirrors it so the tolerance is pinned by assertion
// rather than by hoping.
func recoverTraceLines(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	for _, ln := range strings.Split(string(raw), "\n") {
		ln = strings.TrimSuffix(strings.TrimSpace(ln), ",")
		if ln == "" || ln == "[" || ln == "]" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			continue // torn tail
		}
		events = append(events, ev)
	}
	return events
}

// TestTraceCrashTruncated pins the crash contract: a never-Closed trace is
// still line-recoverable, every complete event survives, and the recovery
// output is stable (golden file).
func TestTraceCrashTruncated(t *testing.T) {
	raw := crashTrace()
	if bytes.HasSuffix(bytes.TrimSpace(raw), []byte("]")) {
		t.Fatal("crash trace unexpectedly closed")
	}

	// Whole-file crash (clean line boundary): all 5 events recoverable.
	events := recoverTraceLines(t, raw)
	if len(events) != 5 {
		t.Fatalf("recovered %d events from crash trace, want 5", len(events))
	}
	if events[2]["args"].(map[string]any)["request_id"] != "req-000001" {
		t.Errorf("request span lost its request_id: %v", events[2])
	}

	// Torn mid-event: the partial line is dropped, everything before it
	// survives byte-for-byte.
	cut := bytes.LastIndexByte(raw, '{') + 10
	torn := recoverTraceLines(t, raw[:cut])
	if len(torn) != 4 {
		t.Fatalf("recovered %d events from torn trace, want 4", len(torn))
	}

	// The recovered form (re-marshaled one event per line) is the golden
	// artifact: if recovery output drifts, the viewer-tolerance story has
	// changed and the golden forces a look.
	var out bytes.Buffer
	for _, ev := range torn {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	checkGolden(t, "trace_truncated.golden", out.Bytes())
}

// errAfterWriter fails every write after the first n bytes.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestTraceWriterSurfacesWriteErrors(t *testing.T) {
	tw := NewTraceWriter(&errAfterWriter{n: 100})
	for i := 0; i < 10; i++ {
		tw.Span(0, 0, "work", "phase", time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	tw.mu.Lock()
	err := tw.err
	tw.mu.Unlock()
	if err == nil {
		t.Fatal("write error not captured")
	}
	if tw.Dropped() == 0 {
		t.Error("events after the failure were not counted as dropped")
	}
	if err := tw.Close(); err == nil {
		t.Error("Close swallowed the write error")
	}
}

// TestTraceWriterConcurrentMixedKinds hammers every emit kind from many
// goroutines under -race: the output must be a valid event stream with
// nothing lost and nothing torn.
func TestTraceWriterConcurrentMixedKinds(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	const ranks, iters = 8, 25
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ts := time.Duration(i) * time.Microsecond
				switch i % 4 {
				case 0:
					tw.Span(0, r, "span", "k", ts, time.Microsecond)
				case 1:
					tw.SpanArgs(1, r, "req", "http", ts, time.Microsecond,
						map[string]any{"request_id": r})
				case 2:
					tw.ThreadName(0, r, "mark")
				case 3:
					tw.Counter(0, "depth", ts, int64(i))
				}
				_ = tw.Events()
				_ = tw.Dropped()
			}
		}(r)
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("concurrent mixed trace invalid: %v", err)
	}
	if len(events) != ranks*iters {
		t.Errorf("got %d events, want %d", len(events), ranks*iters)
	}
	if tw.Dropped() != 0 {
		t.Errorf("healthy run dropped %d events", tw.Dropped())
	}
}
