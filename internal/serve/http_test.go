package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pace"
	"pace/internal/vfs"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Options.Window == 0 {
		cfg.Options = testOptions()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(ts.Close)
	return m, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestHTTPSessionLifecycle walks the whole API: create, list, ingest JSON
// and FASTA batches, poll state, fetch labels both ways, delete.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	resp, body := doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "lib1", "tenant": "lab"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// Duplicate create conflicts.
	resp, _ = doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "lib1"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	// Invalid id is a 400.
	resp, _ = doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "../evil"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %d, want 400", resp.StatusCode)
	}

	batches := testCorpus(t, 40, 11, 20)

	// Batch 1 as JSON.
	var jb struct {
		ESTs []map[string]string `json:"ests"`
	}
	for _, r := range batches[0] {
		jb.ESTs = append(jb.ESTs, map[string]string{"id": r.ID, "seq": r.Seq})
	}
	resp, body = doJSON(t, "POST", base+"/v1/sessions/lib1/batches", jb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch 1: %d %s", resp.StatusCode, body)
	}
	var br BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.BatchESTs != len(batches[0]) || br.Info.NumESTs != len(batches[0]) {
		t.Fatalf("batch 1 result: %+v", br)
	}

	// Batch 2 as FASTA.
	var fb strings.Builder
	for _, r := range batches[1] {
		fmt.Fprintf(&fb, ">%s\n%s\n", r.ID, r.Seq)
	}
	req, err := http.NewRequest("POST", base+"/v1/sessions/lib1/batches", strings.NewReader(fb.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/x-fasta")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("FASTA batch: %d %s", fresp.StatusCode, fbody)
	}

	// Info and list reflect both batches.
	resp, body = doJSON(t, "GET", base+"/v1/sessions/lib1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: %d", resp.StatusCode)
	}
	var info Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	total := len(batches[0]) + len(batches[1])
	if info.NumESTs != total || info.Batches != 2 || info.Tenant != "lab" {
		t.Fatalf("info: %+v, want %d ESTs / 2 batches / tenant lab", info, total)
	}
	resp, body = doJSON(t, "GET", base+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"lib1"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	// Labels: TSV default, JSON on demand; both match a from-scratch run.
	resp, body = doJSON(t, "GET", base+"/v1/sessions/lib1/labels", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != total {
		t.Fatalf("TSV has %d lines, want %d", len(lines), total)
	}
	tsvLabels := make([]int, len(lines))
	for i, ln := range lines {
		parts := strings.Split(ln, "\t")
		if len(parts) != 2 || parts[0] != batchRecID(batches, i) {
			t.Fatalf("TSV line %d: %q", i, ln)
		}
		fmt.Sscanf(parts[1], "%d", &tsvLabels[i])
	}
	want := fromScratchLabels(t, batches[:2], testOptions())
	if !samePartition(tsvLabels, want) {
		t.Error("TSV labels differ from from-scratch run")
	}

	resp, body = doJSON(t, "GET", base+"/v1/sessions/lib1/labels?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels json: %d", resp.StatusCode)
	}
	var jl struct {
		Labels []struct {
			ID    string `json:"id"`
			Label int    `json:"label"`
		} `json:"labels"`
	}
	if err := json.Unmarshal(body, &jl); err != nil {
		t.Fatal(err)
	}
	if len(jl.Labels) != total {
		t.Fatalf("JSON labels: %d rows, want %d", len(jl.Labels), total)
	}
	resp, _ = doJSON(t, "GET", base+"/v1/sessions/lib1/labels?format=xml", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: %d, want 400", resp.StatusCode)
	}

	// Health.
	resp, body = doJSON(t, "GET", base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Delete, then 404s.
	resp, _ = doJSON(t, "DELETE", base+"/v1/sessions/lib1", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", base+"/v1/sessions/lib1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted info: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, "DELETE", base+"/v1/sessions/lib1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp.StatusCode)
	}
}

func batchRecID(batches [][]pace.Record, i int) string {
	for _, b := range batches {
		if i < len(b) {
			return b[i].ID
		}
		i -= len(b)
	}
	return ""
}

// TestHTTPFailedAddRetry sends a bad batch (invalid DNA) over HTTP, gets a
// 400, and proves the session is untouched — a following identical-size
// valid batch clusters as a first attempt. The failure-atomic Session.Add
// satellite, observed end to end through the server.
func TestHTTPFailedAddRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "r"})

	batches := testCorpus(t, 40, 13, 20)
	resp, body := doJSON(t, "POST", base+"/v1/sessions/r/batches",
		map[string]any{"ests": []map[string]string{{"id": "x", "seq": batches[0][0].Seq}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch: %d %s", resp.StatusCode, body)
	}

	// A batch with an invalid sequence fails the run after the good
	// records were parsed alongside it.
	bad := map[string]any{"ests": []map[string]string{
		{"id": "ok", "seq": batches[0][1].Seq},
		{"id": "bad", "seq": "NOT!DNA@ALL"},
	}}
	resp, body = doJSON(t, "POST", base+"/v1/sessions/r/batches", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "GET", base+"/v1/sessions/r", nil)
	var info Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.NumESTs != 1 || info.Batches != 1 {
		t.Fatalf("session mutated by failed batch: %+v", info)
	}

	// The retry (valid this time) succeeds like a first attempt.
	good := map[string]any{"ests": []map[string]string{
		{"id": "ok", "seq": batches[0][1].Seq},
	}}
	resp, body = doJSON(t, "POST", base+"/v1/sessions/r/batches", good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d %s", resp.StatusCode, body)
	}
	var br BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Info.NumESTs != 2 || br.Info.Batches != 2 {
		t.Fatalf("retry result: %+v", br.Info)
	}
}

// TestHTTPDrainRejects verifies mutating requests 503 while draining and
// healthz reports it.
func TestHTTPDrainRejects(t *testing.T) {
	m, ts := newTestServer(t, Config{})
	base := ts.URL
	doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "d"})
	if err := m.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "late"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d, want 503", resp.StatusCode)
	}
	batch := testCorpus(t, 10, 2, 10)[0]
	var jb struct {
		ESTs []pace.Record `json:"ests"`
	}
	jb.ESTs = batch
	resp, _ = doJSON(t, "POST", base+"/v1/sessions/d/batches", jb)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining: %d, want 503", resp.StatusCode)
	}
	resp, body := doJSON(t, "GET", base+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %d %s", resp.StatusCode, body)
	}
	// Reads still work.
	resp, _ = doJSON(t, "GET", base+"/v1/sessions/d/labels", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels while draining: %d", resp.StatusCode)
	}
}

// TestHTTPHealthzAnswersDuringABatch: a liveness probe must not wait on a
// session's lock, which Manager.Add holds for a whole engine run. One
// session is degraded, the other's lock is held as a running batch holds
// it, and /healthz must still answer at once with both counts.
func TestHTTPHealthzAnswersDuringABatch(t *testing.T) {
	fsys := &flakyFS{FS: vfs.OS{}}
	opt := testOptions()
	opt.FS = fsys
	m, ts := newTestServer(t, Config{Options: opt, DataDir: t.TempDir()})
	ctx := testCtx(t)
	for _, id := range []string{"sick", "busy"} {
		if _, err := m.Create(ctx, id, ""); err != nil {
			t.Fatal(err)
		}
	}
	fsys.down.Store(true)
	if _, err := m.Add(ctx, "sick", testCorpus(t, 20, 3, 20)[0]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Add with failing persistence: got %v, want ErrDegraded", err)
	}
	fsys.down.Store(false)

	busy, err := m.lookup("busy")
	if err != nil {
		t.Fatal(err)
	}
	busy.mu.Lock()
	defer busy.mu.Unlock()
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz while a session is locked: %v", err)
	}
	defer resp.Body.Close()
	var got struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
		Degraded int    `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.Status != "degraded" || got.Sessions != 2 || got.Degraded != 1 {
		t.Fatalf("healthz: %d %+v, want 200 degraded with 2 sessions, 1 degraded", resp.StatusCode, got)
	}
}

// TestHTTPSessionListAnswersDuringABatch: listing the sessions, or asking
// for one, must not wait on a running batch. The test holds one session's
// lock as Add does for a whole engine run, then lists while a batch on
// another session publishes its info.
func TestHTTPSessionListAnswersDuringABatch(t *testing.T) {
	m, ts := newTestServer(t, Config{})
	ctx := testCtx(t)
	for _, id := range []string{"busy", "idle"} {
		if _, err := m.Create(ctx, id, ""); err != nil {
			t.Fatal(err)
		}
	}
	batches := testCorpus(t, 40, 3, 20)
	batch := batches[0]
	if _, err := m.Add(ctx, "idle", batch); err != nil {
		t.Fatal(err)
	}

	busy, err := m.lookup("busy")
	if err != nil {
		t.Fatal(err)
	}
	busy.mu.Lock()
	defer busy.mu.Unlock()
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("list while a session is locked: %v", err)
	}
	defer resp.Body.Close()
	var got struct {
		Sessions []Info `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(got.Sessions) != 2 ||
		got.Sessions[0].ID != "busy" || got.Sessions[1].ID != "idle" ||
		got.Sessions[1].NumESTs != len(batch) || got.Sessions[1].Batches != 1 {
		t.Fatalf("list: %d %+v, want busy and idle with %d ESTs in 1 batch", resp.StatusCode, got.Sessions, len(batch))
	}
	if _, err := m.Info("busy"); err != nil {
		t.Fatalf("info while the session is locked: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.Add(ctx, "idle", batches[1])
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			m.List()
		}
	}
	if in, err := m.Info("idle"); err != nil || in.Batches != 2 || in.NumESTs != 40 {
		t.Fatalf("info after the second batch: %+v, %v", in, err)
	}
}

// TestHTTPAllEmptyFASTABatchRefused: a FASTA body of nothing but empty
// records is refused as an empty batch, and the server stays up. The reader
// skips the records in a loop, so a lowered stack ceiling is never reached.
func TestHTTPAllEmptyFASTABatchRefused(t *testing.T) {
	old := debug.SetMaxStack(32 << 20)
	t.Cleanup(func() { debug.SetMaxStack(old) })
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	doJSON(t, "POST", base+"/v1/sessions", map[string]string{"id": "e"})

	body := strings.Repeat(">a\n", 200000)
	resp, err := http.Post(base+"/v1/sessions/e/batches", "text/x-fasta", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "serve: empty batch") {
		t.Fatalf("all-empty batch: %d %s, want 400 serve: empty batch", resp.StatusCode, data)
	}
	if resp, body := doJSON(t, "GET", base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the batch: %d %s", resp.StatusCode, body)
	}
}
