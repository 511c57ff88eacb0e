package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pace/internal/telemetry"
)

// syncBuffer makes a bytes.Buffer safe for the handler goroutines the
// httptest server runs per request.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines parses every JSON log line the server wrote.
func logLines(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(raw), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("unparseable log line %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// TestHTTPRequestObservability drives the full request-scoped triad in one
// server: a client-supplied X-Request-ID is adopted and echoed, a minted id
// appears when the client sends none, every log line for a request carries
// its id, error bodies quote it, the route metrics land on the registry,
// and the trace holds the HTTP request span with the engine batch span
// nested inside it on the session's lane.
func TestHTTPRequestObservability(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, telemetry.LogJSON, slog.LevelDebug, telemetry.NewWallClock())
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf syncBuffer
	tw := telemetry.NewTraceWriter(&traceBuf)
	reg := telemetry.NewRegistry()
	opt := testOptions()
	opt.Metrics = reg
	opt.Logger = logger
	opt.Trace = tw
	m, ts := newTestServer(t, Config{Options: opt})
	_ = m

	// Create with a client-supplied request id: adopted and echoed.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions",
		strings.NewReader(`{"id":"obs","tenant":"t"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-id-42" {
		t.Errorf("client request id not echoed: got %q", got)
	}

	// Batch without a request id: the server mints one and echoes it.
	batch := testCorpus(t, 40, 7, 40)[0]
	body, _ := json.Marshal(map[string]any{"ests": batch})
	req, _ = http.NewRequest("POST", ts.URL+"/v1/sessions/obs/batches", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mintedID := resp.Header.Get(RequestIDHeader)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(mintedID, "req-") {
		t.Errorf("minted request id %q does not look minted", mintedID)
	}

	// Error path: the JSON error body quotes the request id.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/sessions/ghost/batches", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "err-id-7")
	resp, errBody := do(t, req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session: status %d", resp.StatusCode)
	}
	var errJSON map[string]string
	if err := json.Unmarshal(errBody, &errJSON); err != nil {
		t.Fatal(err)
	}
	if errJSON["request_id"] != "err-id-7" {
		t.Errorf("error body request_id = %q, want err-id-7", errJSON["request_id"])
	}

	// Logs: every access line carries a request id; the batch run's
	// lifecycle lines carry the minted one.
	lines := logLines(t, logBuf.String())
	var access, batchLines int
	for _, ln := range lines {
		switch ln["msg"] {
		case "http request":
			access++
			if ln["request_id"] == "" || ln["request_id"] == nil {
				t.Errorf("access log line missing request_id: %v", ln)
			}
		case "batch ingest starting", "batch ingest done":
			batchLines++
			if ln["request_id"] != mintedID {
				t.Errorf("batch log line has request_id %v, want %s", ln["request_id"], mintedID)
			}
		}
	}
	if access != 3 {
		t.Errorf("got %d access log lines, want 3", access)
	}
	if batchLines != 2 {
		t.Errorf("got %d batch lifecycle lines, want 2", batchLines)
	}

	// Metrics: the route families render with route labels, and the
	// queue-wait and batch histograms exist.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pace_http_request_ns_count{route="POST /v1/sessions/{id}/batches"}`,
		`pace_http_responses_total{class="2xx",route="POST /v1/sessions"}`,
		`pace_http_responses_total{class="4xx",route="POST /v1/sessions/{id}/batches"}`,
		"pace_http_in_flight 0",
		"pace_server_admission_queue_wait_ns_count 1",
		`pace_server_batch_ns_count{session="obs"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}

	// Trace: the HTTP request span sits on the session's server lane with
	// its request id, and the batch span nests inside it in time.
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(traceBuf.String()), &events); err != nil {
		t.Fatal(err)
	}
	reqSpan := findSpan(events, "POST /v1/sessions/{id}/batches", mintedID)
	if reqSpan == nil {
		t.Fatal("no HTTP request span with the minted request id")
	}
	batchSpan := findSpan(events, "batch 1", mintedID)
	if batchSpan == nil {
		t.Fatal("no batch span with the minted request id")
	}
	if reqSpan["pid"] != batchSpan["pid"] || reqSpan["tid"] != batchSpan["tid"] {
		t.Errorf("request span %v and batch span %v on different lanes", reqSpan, batchSpan)
	}
	rs, rd := reqSpan["ts"].(float64), reqSpan["dur"].(float64)
	bs, bd := batchSpan["ts"].(float64), batchSpan["dur"].(float64)
	if bs < rs || bs+bd > rs+rd {
		t.Errorf("batch span [%v,%v] not nested in request span [%v,%v]", bs, bs+bd, rs, rs+rd)
	}
	// The engine's own spans run on the session's dedicated process lane.
	var enginePIDs []float64
	for _, ev := range events {
		if pid, ok := ev["pid"].(float64); ok && pid >= enginePIDBase {
			enginePIDs = append(enginePIDs, pid)
		}
	}
	if len(enginePIDs) == 0 {
		t.Error("no engine events on a per-session process lane")
	}
}

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// findSpan locates a complete ("X") event by name carrying the request id.
func findSpan(events []map[string]any, name, reqID string) map[string]any {
	for _, ev := range events {
		if ev["ph"] == "X" && ev["name"] == name {
			if args, ok := ev["args"].(map[string]any); ok && args["request_id"] == reqID {
				return ev
			}
		}
	}
	return nil
}

// TestQuotaRejectionCounter pins the new quota counter: creations bounced
// off either quota increment pace_server_quota_rejected_total.
func TestQuotaRejectionCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt := testOptions()
	opt.Metrics = reg
	m, err := NewManager(Config{Options: opt, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if _, err := m.Create(ctx, "one", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(ctx, "two", ""); err == nil {
		t.Fatal("second create exceeded MaxSessions but succeeded")
	}
	if got := reg.Counter(metricQuotaRejected).Value(); got != 1 {
		t.Errorf("quota rejection counter = %d, want 1", got)
	}
}

// TestRequestIDSanitized pins the header hygiene: hostile or oversized
// client ids are replaced rather than propagated into logs and labels.
func TestRequestIDSanitized(t *testing.T) {
	for _, bad := range []string{"", "has space", "ctl\x01char", strings.Repeat("x", 200)} {
		if got := sanitizeRequestID(bad); got == bad || !strings.HasPrefix(got, "req-") {
			t.Errorf("sanitizeRequestID(%q) = %q, want minted id", bad, got)
		}
	}
	if got := sanitizeRequestID("good-id_42"); got != "good-id_42" {
		t.Errorf("clean id rewritten to %q", got)
	}
}

// TestBuildInfoOnServerRegistry checks the serving registry carries the
// build-info gauge once the cmd layer registers it (the metric the ops
// runbook joins dashboards on).
func TestBuildInfoOnServerRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), telemetry.BuildInfoMetric+"{") {
		t.Errorf("scrape missing %s:\n%s", telemetry.BuildInfoMetric, prom.String())
	}
}
