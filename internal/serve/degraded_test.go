package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/telemetry"
	"pace/internal/vfs"
)

// flakyFS is a vfs.FS whose directory fsyncs fail while `down` is set —
// the shape of a disk that stops accepting durable writes and later heals.
type flakyFS struct {
	vfs.FS
	down atomic.Bool
}

var errDiskDown = errors.New("flakyFS: disk down")

func (f *flakyFS) SyncDir(dir string) error {
	if f.down.Load() {
		return errDiskDown
	}
	return f.FS.SyncDir(dir)
}

// TestManagerDegradedModeHeals walks a session through the degraded
// read-only lifecycle: a persistence failure after a clustered batch enters
// degraded mode (ingest refused with ErrDegraded, reads still served), the
// probe is a no-op while the disk is down, re-arms ingest once it heals,
// and the post-heal state — in memory and on disk — matches a from-scratch
// clustering of everything ingested, including the batch whose save failed.
func TestManagerDegradedModeHeals(t *testing.T) {
	opt := testOptions()
	batches := testCorpus(t, 90, 5, 30) // three batches of 30
	control := fromScratchLabels(t, batches, opt)
	fsys := &flakyFS{FS: vfs.OS{}}
	dataDir := t.TempDir()
	flaky := opt
	flaky.FS = fsys
	reg := telemetry.NewRegistry()
	flaky.Metrics = reg
	degraded := func() int64 { return reg.Gauge(metricDegraded).Value() }
	mgr, err := NewManager(Config{Options: flaky, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mgr.Create(ctx, "s", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Add(ctx, "s", batches[0]); err != nil {
		t.Fatal(err)
	}

	fsys.down.Store(true)
	_, err = mgr.Add(ctx, "s", batches[1])
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Add with failing persistence: got %v, want ErrDegraded", err)
	}
	if !errors.Is(err, errDiskDown) {
		t.Fatalf("degraded error lost the underlying cause: %v", err)
	}
	// The failed batch IS clustered in memory — only its persistence
	// failed. Reads must say so; further ingest must be refused.
	info, err := mgr.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(batches[0]) + len(batches[1]); info.NumESTs != want {
		t.Fatalf("degraded session holds %d ESTs, want %d (batch 2 clustered in memory)", info.NumESTs, want)
	}
	if _, err := mgr.Add(ctx, "s", batches[2]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest into degraded session: got %v, want ErrDegraded", err)
	} else if !errors.Is(err, errDiskDown) {
		// Regression: the refusal on an already-degraded session must wrap
		// the stored cause with %w, not flatten it with %v, so callers can
		// still match the original disk error.
		t.Fatalf("degraded refusal lost the stored cause: %v", err)
	}
	if n := mgr.DegradedCount(); n != 1 {
		t.Fatalf("DegradedCount = %d, want 1", n)
	}
	if healed := mgr.ProbeDegraded(); healed != 0 {
		t.Fatalf("probe healed %d sessions while the disk is still down", healed)
	}
	if n := mgr.DegradedCount(); n != 1 {
		t.Fatalf("DegradedCount after failed probe = %d, want 1", n)
	}
	if g := degraded(); g != 1 {
		t.Fatalf("%s = %d while persistence is down, want 1", metricDegraded, g)
	}

	fsys.down.Store(false)
	if healed := mgr.ProbeDegraded(); healed != 1 {
		t.Fatalf("probe after heal healed %d sessions, want 1", healed)
	}
	if n := mgr.DegradedCount(); n != 0 {
		t.Fatalf("DegradedCount after heal = %d, want 0", n)
	}
	if g := degraded(); g != 0 {
		t.Fatalf("%s = %d after the heal, want 0", metricDegraded, g)
	}
	// Ingest re-armed; do NOT re-send batch 2 — it was clustered in memory
	// and the heal persisted it.
	if _, err := mgr.Add(ctx, "s", batches[2]); err != nil {
		t.Fatalf("ingest after heal: %v", err)
	}
	_, labels, err := mgr.Labels("s")
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(labels, control) {
		t.Fatal("post-heal labels diverge from from-scratch control")
	}

	// The healed state must also be the durable one: a cold restart over
	// the same data dir resumes to the same partition.
	mgr2, err := NewManager(Config{Options: opt, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.ResumeAll(); err != nil {
		t.Fatalf("resume after heal: %v", err)
	}
	_, labels2, err := mgr2.Labels("s")
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(labels2, control) {
		t.Fatal("resumed labels diverge from from-scratch control")
	}
}

// TestManagerRequestTimeout proves the per-request deadline cancels the
// engine run and the session rolls back: an Add under an immediately
// expiring timeout fails wrapping context.DeadlineExceeded and leaves the
// session exactly as it was.
func TestManagerRequestTimeout(t *testing.T) {
	opt := testOptions()
	batches := testCorpus(t, 30, 11, 30)
	mgr, err := NewManager(Config{Options: opt, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mgr.Create(ctx, "s", ""); err != nil {
		t.Fatal(err)
	}
	_, err = mgr.Add(ctx, "s", batches[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Add under 1ns deadline: got %v, want context.DeadlineExceeded", err)
	}
	info, err := mgr.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumESTs != 0 || info.Batches != 0 {
		t.Fatalf("timed-out Add left state behind: %+v", info)
	}
}

// TestManagerClientDisconnectCancels proves a canceled request context —
// the server-side shape of a client hanging up — aborts the run with the
// failure-atomic rollback, and a retried Add then succeeds with the same
// labels a never-canceled ingest produces.
func TestManagerClientDisconnectCancels(t *testing.T) {
	opt := testOptions()
	batches := testCorpus(t, 30, 12, 30)
	control := fromScratchLabels(t, batches, opt)
	mgr, err := NewManager(Config{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(context.Background(), "s", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mgr.Add(ctx, "s", batches[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Add with canceled context: got %v, want context.Canceled", err)
	}
	if info, _ := mgr.Info("s"); info.NumESTs != 0 {
		t.Fatalf("canceled Add left %d ESTs behind", info.NumESTs)
	}
	if _, err := mgr.Add(context.Background(), "s", batches[0]); err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	_, labels, err := mgr.Labels("s")
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(labels, control) {
		t.Fatal("retried labels diverge from control")
	}
}
