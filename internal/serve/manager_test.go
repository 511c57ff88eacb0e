package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pace"

	"pace/internal/telemetry"
	"pace/internal/testutil"
)

func testOptions() pace.Options {
	opt := pace.DefaultOptions()
	opt.Window = 8
	opt.MinMatch = 14
	return opt
}

// testCorpus generates a deterministic synthetic EST corpus split into
// batches of records.
func testCorpus(t *testing.T, numESTs int, seed int64, batch int) [][]pace.Record {
	t.Helper()
	b, err := pace.Simulate(pace.SimOptions{NumESTs: numESTs, NumGenes: numESTs / 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]pace.Record, len(b.ESTs))
	for i, est := range b.ESTs {
		recs[i] = pace.Record{ID: fmt.Sprintf("s%d_est%04d", seed, i), Seq: est}
	}
	var out [][]pace.Record
	for len(recs) > 0 {
		n := batch
		if n > len(recs) {
			n = len(recs)
		}
		out = append(out, recs[:n])
		recs = recs[n:]
	}
	return out
}

// normalize renumbers a partition by first occurrence so two labelings can
// be compared modulo label permutation.
func normalize(labels []int) []int {
	next := 0
	seen := map[int]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		n, ok := seen[l]
		if !ok {
			n = next
			seen[l] = n
			next++
		}
		out[i] = n
	}
	return out
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	na, nb := normalize(a), normalize(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// fromScratchLabels clusters every batch's sequences in one shot.
func fromScratchLabels(t *testing.T, batches [][]pace.Record, opt pace.Options) []int {
	t.Helper()
	var seqs []string
	for _, b := range batches {
		for _, r := range b {
			seqs = append(seqs, r.Seq)
		}
	}
	cl, err := pace.Cluster(seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Labels
}

// TestManagerConcurrentSessions drives ≥8 sessions through the manager
// concurrently — interleaved Add, Labels, Info, List and Save — and then
// checks every session's final labels against a from-scratch run of the
// same sequences. Run under -race this is the ISSUE's stress criterion:
// per-session serialization plus admission bounds make the whole thing
// race-clean even though sessions share the manager, metrics and data dir.
func TestManagerConcurrentSessions(t *testing.T) {
	testutil.CheckGoroutines(t)
	const numSessions = 10
	opt := testOptions()
	opt.Metrics = pace.NewMetricsRegistry()
	m, err := NewManager(Config{
		Options:              opt,
		DataDir:              t.TempDir(),
		MaxSessionsPerTenant: numSessions,
		Admission:            AdmissionConfig{Grants: 4, Queue: 2 * numSessions},
	})
	if err != nil {
		t.Fatal(err)
	}

	corpora := make([][][]pace.Record, numSessions)
	for i := range corpora {
		corpora[i] = testCorpus(t, 60, int64(100+i), 20)
	}

	var wg sync.WaitGroup
	errc := make(chan error, numSessions)
	for i := 0; i < numSessions; i++ {
		id := fmt.Sprintf("sess-%02d", i)
		if _, err := m.Create(context.Background(), id, "stress"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string, batches [][]pace.Record) {
			defer wg.Done()
			for bi, batch := range batches {
				if _, err := m.Add(context.Background(), id, batch); err != nil {
					errc <- fmt.Errorf("%s batch %d: %w", id, bi, err)
					return
				}
				// Interleave reads with other goroutines' writes.
				if _, _, err := m.Labels(id); err != nil {
					errc <- fmt.Errorf("%s labels: %w", id, err)
					return
				}
				if _, err := m.Info(id); err != nil {
					errc <- fmt.Errorf("%s info: %w", id, err)
					return
				}
				m.List()
				if err := m.Save(id); err != nil {
					errc <- fmt.Errorf("%s save: %w", id, err)
					return
				}
			}
		}(id, corpora[i])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	for i := 0; i < numSessions; i++ {
		id := fmt.Sprintf("sess-%02d", i)
		recs, labels, err := m.Labels(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fromScratchLabels(t, corpora[i], testOptions())
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, want %d", id, len(recs), len(want))
		}
		if !samePartition(labels, want) {
			t.Errorf("%s: incremental labels differ from from-scratch run", id)
		}
	}

	st := m.Admission().Stats()
	if st.HighWater > 4 {
		t.Errorf("admission high water %d exceeds 4 grants", st.HighWater)
	}
	if st.InService != 0 || st.Waiting != 0 {
		t.Errorf("admission not idle after drain: %+v", st)
	}
}

// TestManagerAdmissionBackpressure fills every grant and queue slot with
// blocked acquirers and asserts the next request is rejected with ErrBusy
// (the handler's 429), then that releasing grants unblocks the queue FIFO.
func TestManagerAdmissionBackpressure(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{Grants: 2, Queue: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := adm.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	waiterErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { waiterErr <- adm.Acquire(ctx) }()
	}
	// Wait until both waiters are queued.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if adm.Stats().Waiting == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := adm.Acquire(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue: got %v, want ErrBusy", err)
	}
	if got := adm.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	adm.Release() // hands the grant to the first waiter; one queue slot frees
	// A canceled context abandons its queue slot cleanly.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := adm.Acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: got %v", err)
	}
	adm.Release() // hands the grant to the second waiter
	for i := 0; i < 2; i++ {
		select {
		case err := <-waiterErr:
			if err != nil {
				t.Fatalf("waiter: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never granted")
		}
	}
	adm.Release()
	adm.Release()
	if !adm.Idle() {
		t.Fatalf("not idle: %+v", adm.Stats())
	}
	if hw := adm.Stats().HighWater; hw != 2 {
		t.Fatalf("high water = %d, want 2", hw)
	}
}

// TestManagerBusyMapsToErrBusy exercises backpressure through Manager.Add:
// with one grant and no queue, a second concurrent batch gets ErrBusy.
func TestManagerBusyMapsToErrBusy(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt := testOptions()
	opt.Metrics = reg
	m, err := NewManager(Config{
		Options:   opt,
		Admission: AdmissionConfig{Grants: 1, Queue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "s", ""); err != nil {
		t.Fatal(err)
	}
	// The admission gauges are live: they show a request queued inside
	// Acquire while it waits, not only once Add has been granted.
	gauges := func(wantInService, wantWaiting int64) {
		t.Helper()
		if got := reg.Gauge(metricAdmInService).Value(); got != wantInService {
			t.Errorf("%s = %d, want %d", metricAdmInService, got, wantInService)
		}
		if got := reg.Gauge(metricAdmWaiting).Value(); got != wantWaiting {
			t.Errorf("%s = %d, want %d", metricAdmWaiting, got, wantWaiting)
		}
	}
	// Occupy the single grant and the single queue slot directly, then
	// prove a real Add bounces.
	if err := m.Admission().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- m.Admission().Acquire(context.Background()) }()
	for deadline := time.Now().Add(5 * time.Second); m.Admission().Stats().Waiting != 1; {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never occupied")
		}
		time.Sleep(time.Millisecond)
	}
	gauges(1, 1)
	batch := testCorpus(t, 10, 1, 10)[0]
	if _, err := m.Add(context.Background(), "s", batch); !errors.Is(err, ErrBusy) {
		t.Fatalf("Add with full queue: got %v, want ErrBusy", err)
	}
	if got := reg.Counter(metricAdmRejected).Value(); got != 1 {
		t.Errorf("%s = %d after one rejected Add, want 1", metricAdmRejected, got)
	}
	m.Admission().Release()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	m.Admission().Release()
	gauges(0, 0)
}

// TestManagerRestartResume kills a manager (by abandoning it — the state
// dirs are the only survivors, as after SIGKILL) and proves a fresh
// manager over the same data dir resumes every session with labels
// identical to both the pre-restart state and a from-scratch run,
// including after further incremental batches.
func TestManagerRestartResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: testOptions(), DataDir: dir}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpora := map[string][][]pace.Record{
		"alpha": testCorpus(t, 60, 7, 20),
		"beta":  testCorpus(t, 50, 8, 25),
	}
	before := map[string][]int{}
	for id, batches := range corpora {
		if _, err := m1.Create(context.Background(), id, "t1"); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:len(batches)-1] { // hold back the last batch
			if _, err := m1.Add(context.Background(), id, b); err != nil {
				t.Fatal(err)
			}
		}
		_, labels, err := m1.Labels(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = labels
	}
	// Also a created-but-empty session: it must survive restart too.
	if _, err := m1.Create(context.Background(), "empty", "t1"); err != nil {
		t.Fatal(err)
	}
	// m1 is abandoned here without any drain — like a SIGKILL, the state
	// dirs written after each Add are all that remains.

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m2.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("resumed %d sessions, want 3", n)
	}
	info, err := m2.Info("empty")
	if err != nil || info.NumESTs != 0 {
		t.Fatalf("empty session after resume: %+v, %v", info, err)
	}
	for id, batches := range corpora {
		_, labels, err := m2.Labels(id)
		if err != nil {
			t.Fatal(err)
		}
		if !samePartition(labels, before[id]) {
			t.Errorf("%s: resumed labels differ from pre-restart labels", id)
		}
		// The resumed session keeps clustering incrementally.
		if _, err := m2.Add(context.Background(), id, batches[len(batches)-1]); err != nil {
			t.Fatal(err)
		}
		_, labels, err = m2.Labels(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fromScratchLabels(t, batches, testOptions())
		if !samePartition(labels, want) {
			t.Errorf("%s: post-resume incremental labels differ from from-scratch run", id)
		}
	}
	// Tenant metadata survived.
	in, err := m2.Info("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if in.Tenant != "t1" {
		t.Errorf("resumed tenant = %q, want t1", in.Tenant)
	}
}

// TestManagerResumeClaimsOnlyItsOwnDirectories: a directory under DataDir
// with neither an EST store nor metadata (lost+found) is not a session, and
// a session's metadata copied into another directory is refused, naming
// that directory, instead of displacing the session it names.
func TestManagerResumeClaimsOnlyItsOwnDirectories(t *testing.T) {
	seed := func(t *testing.T) (Config, string) {
		dir := t.TempDir()
		cfg := Config{Options: testOptions(), DataDir: dir}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create(context.Background(), "a", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Add(context.Background(), "a", testCorpus(t, 20, 3, 20)[0]); err != nil {
			t.Fatal(err)
		}
		return cfg, dir
	}

	t.Run("stray directory", func(t *testing.T) {
		cfg, dir := seed(t)
		if err := os.Mkdir(filepath.Join(dir, "lost+found"), 0o755); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.ResumeAll()
		if err != nil {
			t.Fatal(err)
		}
		if list := m.List(); n != 1 || len(list) != 1 || list[0].ID != "a" {
			t.Fatalf("resumed %d sessions, listed %+v; want only a", n, list)
		}
	})

	t.Run("copied metadata", func(t *testing.T) {
		cfg, dir := seed(t)
		data, err := os.ReadFile(filepath.Join(dir, "a", MetaFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "a-copy"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "a-copy", MetaFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = m.ResumeAll(); err == nil || !contains(err.Error(), "a-copy") {
			t.Fatalf("got %v, want an error naming a-copy", err)
		}
	})
}

// TestManagerResumeDetectsMismatch desyncs a state directory both ways and
// asserts ResumeAll fails with ErrStateMismatch naming the bad session —
// the satellite bugfix for silently-torn -session directories.
func TestManagerResumeDetectsMismatch(t *testing.T) {
	seed := func(t *testing.T) (Config, string) {
		dir := t.TempDir()
		cfg := Config{Options: testOptions(), DataDir: dir}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create(context.Background(), "torn", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Add(context.Background(), "torn", testCorpus(t, 20, 3, 20)[0]); err != nil {
			t.Fatal(err)
		}
		return cfg, filepath.Join(dir, "torn")
	}

	t.Run("store ahead of checkpoint", func(t *testing.T) {
		cfg, sdir := seed(t)
		// Simulate the SaveState crash window: the store gained a batch
		// the checkpoint never saw.
		f, err := os.OpenFile(filepath.Join(sdir, FASTAFile), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(">crashed_tail\nACGTACGTACGTACGTACGT\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.ResumeAll()
		if !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("got %v, want ErrStateMismatch", err)
		}
		for _, want := range []string{"torn", "re-add"} {
			if !contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("checkpoint ahead of store", func(t *testing.T) {
		cfg, sdir := seed(t)
		// Truncate the store to fewer records than the checkpoint covers.
		recs, err := readFASTAFile(filepath.Join(sdir, FASTAFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFASTAFile(filepath.Join(sdir, FASTAFile), recs[:len(recs)-1]); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.ResumeAll()
		if !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("got %v, want ErrStateMismatch", err)
		}
		if !contains(err.Error(), "truncated or edited") {
			t.Errorf("error %q does not explain the truncated store", err)
		}
	})

	t.Run("parameter drift keeps the validation error in the chain", func(t *testing.T) {
		cfg, _ := seed(t)
		// Resume with different clustering parameters: the checkpoint's
		// Validate rejects the drift. Regression: that validation error
		// must be wrapped with %w — a distinct node in the unwrap chain —
		// not flattened into text with %v.
		cfg.Options.Window = cfg.Options.Window + 2
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.ResumeAll()
		if !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("got %v, want ErrStateMismatch", err)
		}
		if !chainHasNodeWithPrefix(err, "cluster: checkpoint parameters") {
			t.Fatalf("validation error is not a node in the chain (flattened?): %v", err)
		}
	})
}

// chainHasNodeWithPrefix reports whether some error in err's unwrap tree has
// a message starting with prefix — i.e. the error survives as its own node
// rather than as flattened text inside a parent's message.
func chainHasNodeWithPrefix(err error, prefix string) bool {
	if err == nil {
		return false
	}
	if strings.HasPrefix(err.Error(), prefix) {
		return true
	}
	switch x := err.(type) {
	case interface{ Unwrap() error }:
		return chainHasNodeWithPrefix(x.Unwrap(), prefix)
	case interface{ Unwrap() []error }:
		for _, e := range x.Unwrap() {
			if chainHasNodeWithPrefix(e, prefix) {
				return true
			}
		}
	}
	return false
}

// TestManagerQuotas covers the session quotas: server-wide, per-tenant and
// per-session EST capacity.
func TestManagerQuotas(t *testing.T) {
	m, err := NewManager(Config{
		Options:              testOptions(),
		MaxSessions:          3,
		MaxSessionsPerTenant: 2,
		MaxESTsPerSession:    25,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ id, tenant string }{{"a1", "ta"}, {"a2", "ta"}} {
		if _, err := m.Create(context.Background(), c.id, c.tenant); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(context.Background(), "a3", "ta"); !errors.Is(err, ErrQuota) {
		t.Fatalf("per-tenant quota: got %v, want ErrQuota", err)
	}
	if _, err := m.Create(context.Background(), "b1", "tb"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "b2", "tb"); !errors.Is(err, ErrQuota) {
		t.Fatalf("server quota: got %v, want ErrQuota", err)
	}
	if _, err := m.Create(context.Background(), "dup", "ta"); !errors.Is(err, ErrQuota) {
		// still at server quota
		t.Fatalf("got %v, want ErrQuota", err)
	}
	if err := m.Delete("a2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "a1", "ta"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate id: got %v, want ErrExists", err)
	}
	if _, err := m.Create(context.Background(), "bad/../id", "ta"); err == nil {
		t.Fatal("path-traversal id accepted")
	}

	batches := testCorpus(t, 30, 5, 20)
	if _, err := m.Add(context.Background(), "a1", batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(context.Background(), "a1", batches[1]); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EST capacity: got %v, want ErrTooLarge", err)
	}
	if _, err := m.Add(context.Background(), "ghost", batches[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: got %v, want ErrNotFound", err)
	}
}

// TestManagerRejectsNegativeLimits: a negative limit has no documented
// meaning, so NewManager refuses it rather than reading it as the default,
// as unlimited or as the derived cap. Zero keeps its meaning.
func TestManagerRejectsNegativeLimits(t *testing.T) {
	if _, err := NewManager(Config{Options: testOptions()}); err != nil {
		t.Fatalf("zero limits refused: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"MaxSessions", func(c *Config) { c.MaxSessions = -1 }},
		{"MaxSessionsPerTenant", func(c *Config) { c.MaxSessionsPerTenant = -1 }},
		{"MaxESTsPerSession", func(c *Config) { c.MaxESTsPerSession = -1 }},
		{"MaxBatchBytes", func(c *Config) { c.MaxBatchBytes = -1 }},
		{"Admission.Grants", func(c *Config) { c.Admission.Grants = -3 }},
		{"Admission.Queue", func(c *Config) { c.Admission.Queue = -1 }},
		{"RequestTimeout", func(c *Config) { c.RequestTimeout = -time.Second }},
	}
	for _, tc := range cases {
		cfg := Config{Options: testOptions()}
		tc.mut(&cfg)
		m, err := NewManager(cfg)
		if err == nil || !strings.Contains(err.Error(), "serve: "+tc.name+" must be >= 0") {
			t.Errorf("%s negative: manager %v, error %v", tc.name, m != nil, err)
		}
	}
}

// TestManagerDrain proves Drain refuses new work, waits for in-flight
// admissions, and persists every session.
func TestManagerDrain(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	cfg := Config{Options: testOptions(), DataDir: dir}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "d", ""); err != nil {
		t.Fatal(err)
	}
	batch := testCorpus(t, 20, 9, 20)[0]
	if _, err := m.Add(context.Background(), "d", batch); err != nil {
		t.Fatal(err)
	}
	// Remove the state files so only Drain's save can restore them.
	if err := os.Remove(filepath.Join(dir, "d", FASTAFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "d", CheckpointFile)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(context.Background(), "d", batch); !errors.Is(err, ErrDraining) {
		t.Fatalf("Add while draining: got %v, want ErrDraining", err)
	}
	if _, err := m.Create(context.Background(), "late", ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("Create while draining: got %v, want ErrDraining", err)
	}
	// The drained state resumes.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ResumeAll(); err != nil {
		t.Fatal(err)
	}
	info, err := m2.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumESTs != len(batch) {
		t.Fatalf("resumed %d ESTs, want %d", info.NumESTs, len(batch))
	}
}

// TestManagerDrainDeadlineCancelsBatch: a batch still running when Drain's
// deadline passes is canceled. It fails with an error wrapping
// context.Canceled and leaves its session as it was, and Drain returns once
// admission is idle.
func TestManagerDrainDeadlineCancelsBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	opt := testOptions()
	opt.Processors = 2
	plan := &pace.FaultPlan{Seed: 1}
	opt.Fault = plan
	m, err := NewManager(Config{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "d", ""); err != nil {
		t.Fatal(err)
	}
	batches := testCorpus(t, 40, 13, 20)
	if _, err := m.Add(context.Background(), "d", batches[0]); err != nil {
		t.Fatal(err)
	}
	_, before, err := m.Labels("d")
	if err != nil {
		t.Fatal(err)
	}

	// Every send of the second batch's run now stalls 50 ms, so the run
	// takes far longer than the drain's 20 ms deadline.
	plan.DelayProb, plan.Delay = 1, 50*time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := m.Add(context.Background(), "d", batches[1])
		done <- err
	}()
	for m.Admission().Stats().InService == 0 {
		select {
		case err := <-done:
			t.Fatalf("batch ended before it was admitted: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !m.Admission().Idle() {
		t.Error("Drain returned with admission busy")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch outliving the drain deadline: got %v, want context.Canceled", err)
	}
	info, err := m.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumESTs != len(batches[0]) {
		t.Errorf("canceled batch left %d ESTs, want %d", info.NumESTs, len(batches[0]))
	}
	if _, after, _ := m.Labels("d"); !slices.Equal(after, before) {
		t.Error("canceled batch changed the session's labels")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func readFASTAFile(path string) ([]pace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pace.ReadFASTA(f)
}

func writeFASTAFile(path string, recs []pace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pace.WriteFASTA(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
