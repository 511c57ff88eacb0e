package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenRegistry builds a deterministic registry covering every metric kind
// and the label paths.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Help("pace_pairs_generated_total", "Canonical promising pairs emitted by the generators.")
	reg.Counter("pace_pairs_generated_total").Add(1234)
	reg.Counter("pace_mp_msgs_sent_total", Rank(0)).Add(17)
	reg.Counter("pace_mp_msgs_sent_total", Rank(1)).Add(23)
	reg.Gauge("pace_workbuf_occupancy").Set(87)
	reg.FloatGauge("pace_suffix_skew").Set(1.5)
	h := reg.Histogram("pace_grant_e", []int64{1, 8, 64})
	for _, v := range []int64{0, 1, 5, 9, 64, 120} {
		h.Observe(v)
	}
	return reg
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden", buf.Bytes())
}

func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(0, "pace")
	tw.ThreadName(0, 0, "rank 0 (master)")
	tw.ThreadName(0, 1, "rank 1 (slave)")
	tw.Span(0, 1, "partition", "phase", 0, 1500*time.Microsecond)
	tw.Span(0, 1, "construct", "phase", 1500*time.Microsecond, 2*time.Millisecond)
	tw.Counter(0, "workbuf", 2*time.Millisecond, 42)
	tw.Instant(0, 0, "stop", 4*time.Millisecond)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// The stream must be valid JSON (an array of events)…
	var events []map[string]any
	if err := json.Unmarshal(got, &events); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, got)
	}
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	// …and line-oriented: every event line parses on its own once the
	// array punctuation is stripped (the JSONL property).
	lines := strings.Split(strings.TrimSpace(string(got)), "\n")
	for _, ln := range lines[1 : len(lines)-1] {
		ln = strings.TrimSuffix(ln, ",")
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %q is not standalone JSON: %v", ln, err)
		}
	}
	checkGolden(t, "trace.golden", got)
}

func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				tw.Span(0, r, "work", "phase", time.Duration(i)*time.Microsecond, time.Microsecond)
			}
		}(r)
	}
	for r := 0; r < 4; r++ {
		<-done
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("concurrent trace output invalid: %v", err)
	}
	if len(events) != 200 {
		t.Errorf("got %d events, want 200", len(events))
	}
	// Emitting after Close must be a silent no-op, not corruption.
	tw.Span(0, 0, "late", "phase", 0, 0)
	if tw.Events() != 200 {
		t.Errorf("event count changed after Close")
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	reg := goldenRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "pace_pairs_generated_total 1234") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	code, body = get("/debug/vars")
	if code != 200 || !strings.Contains(body, `"pace"`) {
		t.Errorf("/debug/vars = %d missing pace var", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Errorf("/debug/vars not JSON: %v", err)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestRunReportJSONAndTables(t *testing.T) {
	rep := &RunReport{
		Tool:           "pace",
		Dataset:        "ests.fasta",
		Params:         map[string]string{"w": "8", "psi": "20"},
		Procs:          4,
		Simulated:      true,
		WallSeconds:    2.5,
		VirtualSeconds: 1.25,
		NumESTs:        120,
		NumClusters:    9,
		Phases: []PhaseEntry{
			{Name: "gst-construction", Seconds: 0.5},
			{Name: "pair-generation", Seconds: 0.25},
			{Name: "clustering", Seconds: 0.5},
			{Name: "total", Seconds: 1.25},
		},
		Ranks: []RankEntry{
			{Rank: 1, Role: "slave", ConstructSeconds: 0.4, AlignSeconds: 0.3,
				TotalSeconds: 1.2, MsgsSent: 10, BytesSent: 1000, MsgsRecv: 11,
				BytesRecv: 900, RecvWaitSeconds: 0.1, PairsGenerated: 50,
				PairsProcessed: 40, PairsAccepted: 12},
			{Rank: 0, Role: "master", TotalSeconds: 1.25, RecvWaitSeconds: 0.9},
		},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Procs != 4 || len(back.Phases) != 4 || len(back.Ranks) != 2 {
		t.Errorf("round-trip mismatch: %+v", back)
	}

	pt := rep.FormatPhaseTable()
	if !strings.Contains(pt, "gst-construction") || !strings.Contains(pt, "virtual") {
		t.Errorf("phase table missing content:\n%s", pt)
	}
	if !strings.Contains(pt, "40.0%") {
		t.Errorf("phase table missing percentage:\n%s", pt)
	}
	rt := rep.FormatRankTable()
	// Sorted by rank: master row first.
	if !strings.Contains(rt, "master") || !strings.Contains(rt, "slave") {
		t.Errorf("rank table missing roles:\n%s", rt)
	}
	if strings.Index(rt, "master") > strings.Index(rt, "slave") {
		t.Errorf("rank table not sorted by rank:\n%s", rt)
	}

	if got := BenchFileName("pace", time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)); got != "BENCH_pace_20260805T120000Z.json" {
		t.Errorf("BenchFileName = %s", got)
	}
}

// TestStampRule: a fixed stamp sets the timestamp and zeroes the wall time;
// the zero stamp means now and keeps it, in the report and the file name.
func TestStampRule(t *testing.T) {
	fixed := time.Date(2002, 8, 20, 0, 0, 0, 0, time.UTC)
	rep := &RunReport{WallSeconds: 2.5}
	rep.StampAt(fixed)
	if rep.Timestamp != "2002-08-20T00:00:00Z" || rep.WallSeconds != 0 {
		t.Errorf("fixed stamp: timestamp %q, wall %v", rep.Timestamp, rep.WallSeconds)
	}

	before := time.Now().UTC().Truncate(time.Second)
	rep = &RunReport{WallSeconds: 2.5}
	rep.StampAt(time.Time{})
	name := BenchFileName("pace", time.Time{})
	after := time.Now().UTC()
	got, err := time.Parse(time.RFC3339, rep.Timestamp)
	if err != nil || got.Before(before) || got.After(after) || rep.WallSeconds != 2.5 {
		t.Errorf("zero stamp: timestamp %q (%v), wall %v; want now, 2.5", rep.Timestamp, err, rep.WallSeconds)
	}
	got, err = time.Parse("BENCH_pace_20060102T150405Z.json", name)
	if err != nil || got.Before(before) || got.After(after) {
		t.Errorf("zero stamp: BenchFileName = %s (%v), want now", name, err)
	}
}
