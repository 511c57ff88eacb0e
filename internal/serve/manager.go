package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pace"
	"pace/internal/telemetry"
	"pace/internal/vfs"
)

// Manager lifecycle errors, mapped to HTTP statuses by the handler.
var (
	// ErrNotFound names a session id with no live session.
	ErrNotFound = errors.New("serve: session not found")
	// ErrExists rejects creating an id that is already live.
	ErrExists = errors.New("serve: session already exists")
	// ErrQuota rejects a create that would exceed the server-wide or
	// per-tenant session quota.
	ErrQuota = errors.New("serve: session quota exceeded")
	// ErrDraining rejects mutating requests while the server drains.
	ErrDraining = errors.New("serve: server is draining")
	// ErrTooLarge rejects a batch that would exceed MaxESTsPerSession.
	ErrTooLarge = errors.New("serve: batch exceeds session capacity")
	// ErrDegraded rejects ingest into a session whose state could not be
	// persisted: the session is read-only (labels and info still serve)
	// until a probe re-save succeeds. Mapped to 503 + Retry-After.
	ErrDegraded = errors.New("serve: session degraded read-only (persistence failing)")
)

// Server-level metric families. Per-session series carry a session label.
const (
	metricAdmInService   = "pace_server_admission_in_service"
	metricAdmWaiting     = "pace_server_admission_waiting"
	metricAdmRejected    = "pace_server_rejected_total"
	metricAdmQueueWaitNs = "pace_server_admission_queue_wait_ns"
	metricQuotaRejected  = "pace_server_quota_rejected_total"
	metricBatchNs        = "pace_server_batch_ns"
	metricDegraded       = "pace_server_degraded"
)

// latencyBounds buckets the server's nanosecond latency histograms, 1µs
// up ×4 per bucket. Held once so an update on a disabled registry allocates
// nothing.
var latencyBounds = telemetry.ExpBounds(1000, 4, 12)

// Trace lanes. The server owns process lane 1 in the Chrome trace (pid 0 is
// the standalone CLI pipeline): each session gets a thread lane there, so an
// HTTP request span and the batch span it admitted nest on one timeline.
// Each session's engine additionally gets a whole process lane of its own
// (enginePIDBase+lane) for its per-rank detail timelines.
const (
	serverTracePID = 1
	enginePIDBase  = 100
)

// Config parameterizes a Manager.
type Config struct {
	// Options is the clustering configuration every session runs with.
	// Sessions created over HTTP all share it, so their checkpoints all
	// validate against the same fingerprint at resume. Its sinks are the
	// server's too: FS carries every durable write (state saves, metadata,
	// the engine's checkpoints; nil is the real filesystem), Metrics
	// receives the server's families beside the engine's, Logger its
	// lifecycle and request events (each session's tagged with a session
	// attribute), and Trace its request and batch spans on process lane
	// serverTracePID beside each session's engine lane. The caller owns
	// closing Trace.
	Options pace.Options
	// DataDir is the durability root: each session owns the state
	// directory DataDir/<id>. Empty runs fully in memory.
	DataDir string
	// MaxSessions bounds live sessions server-wide (default 64).
	MaxSessions int
	// MaxSessionsPerTenant bounds live sessions per tenant (default 16).
	MaxSessionsPerTenant int
	// MaxESTsPerSession bounds a session's total EST count; a batch that
	// would exceed it is rejected whole (0 = unlimited).
	MaxESTsPerSession int
	// MaxBatchBytes caps an ingest request body (http.MaxBytesReader);
	// overflow maps to 413. 0 derives a cap from MaxESTsPerSession (see
	// Manager.maxBatchBytes).
	MaxBatchBytes int64
	// Admission bounds concurrent batch ingestion.
	Admission AdmissionConfig
	// RequestTimeout bounds one batch ingest end to end (queue wait plus
	// the engine run): on expiry the run is canceled, the session rolls
	// back, and the request fails with 504. 0 disables the per-request
	// deadline (client disconnect and drain still cancel).
	RequestTimeout time.Duration
	// Clock is the server's time base for latency metrics, queue-wait
	// accounting and trace timestamps; nil uses the wall clock.
	Clock telemetry.Clock
}

func (c Config) logger() *slog.Logger {
	if c.Options.Logger != nil {
		return c.Options.Logger
	}
	return telemetry.NopLogger()
}

func (c Config) fs() vfs.FS {
	if c.Options.FS != nil {
		return c.Options.FS
	}
	return vfs.OS{}
}

// validateLimits rejects negative limits. Zero keeps each limit's documented
// meaning (a default, unlimited, or derived); a negative value has none.
func (c Config) validateLimits() error {
	limits := []struct {
		name string
		neg  bool
		val  any
	}{
		{"MaxSessions", c.MaxSessions < 0, c.MaxSessions},
		{"MaxSessionsPerTenant", c.MaxSessionsPerTenant < 0, c.MaxSessionsPerTenant},
		{"MaxESTsPerSession", c.MaxESTsPerSession < 0, c.MaxESTsPerSession},
		{"MaxBatchBytes", c.MaxBatchBytes < 0, c.MaxBatchBytes},
		{"Admission.Grants", c.Admission.Grants < 0, c.Admission.Grants},
		{"Admission.Queue", c.Admission.Queue < 0, c.Admission.Queue},
		{"RequestTimeout", c.RequestTimeout < 0, c.RequestTimeout},
	}
	for _, l := range limits {
		if l.neg {
			return fmt.Errorf("serve: %s must be >= 0, got %v", l.name, l.val)
		}
	}
	return nil
}

func (c Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return 64
}

func (c Config) maxPerTenant() int {
	if c.MaxSessionsPerTenant > 0 {
		return c.MaxSessionsPerTenant
	}
	return 16
}

// session is one managed session. mu serializes every touch of sess/recs:
// pace.Session is documented single-goroutine, so the manager owns exactly
// one lock per session and all request handling runs under it.
type session struct {
	meta Meta
	dir  string // state directory; "" when the manager is memory-only
	lane int    // thread lane on the server's trace process

	mu   sync.Mutex
	sess *pace.Session
	recs []pace.Record
	gone bool // deleted while another request held the pointer
	// degraded marks the session read-only after a persistence failure:
	// memory is ahead of disk, so ingest is refused (503 + Retry-After)
	// until a probe re-save rewrites the full state and heals the gap.
	// Labels and info still serve — they come from memory.
	degraded bool
	// degradedCause is the save error that entered degraded mode.
	degradedCause error
	// info is the session's Info as of its last successful run, published
	// so that listing never waits on a running batch for s.mu.
	info atomic.Pointer[Info]
}

// saveLocked persists the session's state pair through fsys. Caller holds
// s.mu.
func (s *session) saveLocked(fsys vfs.FS) error {
	if s.dir == "" || s.sess.NumESTs() == 0 {
		return nil
	}
	return SaveState(fsys, s.dir, s.sess, s.recs)
}

// Manager owns the live sessions behind the HTTP API: creation and quotas,
// per-session serialization, bounded admission of batch work, durability
// via SaveState/LoadState, and graceful drain.
type Manager struct {
	cfg   Config
	adm   *Admission
	clock telemetry.Clock
	log   *slog.Logger
	fs    vfs.FS
	// nDegraded counts sessions in degraded read-only mode, and degraded
	// publishes it; addDegraded moves both.
	nDegraded atomic.Int64
	degraded  *telemetry.Gauge

	mu       sync.Mutex
	sessions map[string]*session
	nextLane int
	draining bool
	// runs is the scope every batch run joins; a drain that hits its
	// deadline cancels it, aborting the engine runs instead of waiting them
	// out while they hold session locks and admission grants.
	runs       context.Context
	cancelRuns context.CancelFunc
}

// NewManager validates the configuration and returns an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	if _, err := pace.NewSession(cfg.Options); err != nil {
		return nil, fmt.Errorf("serve: session options: %w", err)
	}
	if err := cfg.validateLimits(); err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		if err := cfg.fs().MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = telemetry.NewWallClock()
	}
	m := &Manager{
		cfg:      cfg,
		adm:      NewAdmission(cfg.Admission),
		clock:    clk,
		log:      cfg.logger(),
		fs:       cfg.fs(),
		sessions: make(map[string]*session),
		nextLane: 1, // lane 0 is the control lane for non-session requests
	}
	m.runs, m.cancelRuns = context.WithCancel(context.Background())
	r := cfg.Options.Metrics
	r.Help(metricAdmInService, "Batch requests holding an admission grant.")
	r.Help(metricAdmWaiting, "Batch requests queued for an admission grant.")
	r.Help(metricAdmRejected, "Requests rejected with a full admission queue (HTTP 429).")
	r.Help(metricAdmQueueWaitNs, "Time a batch request waited for an admission grant, nanoseconds.")
	r.Help(metricQuotaRejected, "Session creations rejected over quota.")
	r.Help(metricBatchNs, "End-to-end latency of one ingested batch (admitted to clustered+saved), nanoseconds.")
	r.Help(metricDegraded, "Sessions in degraded read-only mode (persistence failing).")
	m.adm.observe(r.Gauge(metricAdmInService), r.Gauge(metricAdmWaiting), r.Counter(metricAdmRejected))
	m.degraded = r.Gauge(metricDegraded)
	cfg.Options.Trace.ProcessName(serverTracePID, "paced server")
	cfg.Options.Trace.ThreadName(serverTracePID, 0, "control")
	return m, nil
}

// idPattern keeps session ids and tenants path- and label-safe: they name
// state directories and Prometheus label values.
var idPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

func validateID(kind, id string) error {
	if !idPattern.MatchString(id) || id == "." || id == ".." {
		return fmt.Errorf("serve: invalid %s %q: want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric", kind, id)
	}
	return nil
}

// Info is a session's externally visible state.
type Info struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant,omitempty"`
	NumESTs     int    `json:"num_ests"`
	Batches     int    `json:"batches"`
	NumClusters int    `json:"num_clusters"`
}

// publish stores the session's current Info for List and Info to read
// without s.mu. Caller holds s.mu or has not shared s yet.
func (s *session) publish() Info {
	in := Info{
		ID:      s.meta.ID,
		Tenant:  s.meta.Tenant,
		NumESTs: s.sess.NumESTs(),
		Batches: s.sess.Batches(),
	}
	if cl := s.sess.Clustering(); cl != nil {
		in.NumClusters = cl.NumClusters
	} else if labels := s.sess.Labels(); labels != nil {
		// Resumed sessions know their partition but not the last run.
		max := -1
		for _, l := range labels {
			if l > max {
				max = l
			}
		}
		in.NumClusters = max + 1
	}
	s.info.Store(&in)
	return in
}

// Create registers an empty session for a tenant, enforcing quotas, and
// persists its metadata when durability is on. ctx carries the request id
// for the lifecycle log line.
func (m *Manager) Create(ctx context.Context, id, tenant string) (Info, error) {
	if err := validateID("session id", id); err != nil {
		return Info{}, err
	}
	if tenant == "" {
		tenant = "default"
	}
	if err := validateID("tenant", tenant); err != nil {
		return Info{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Info{}, ErrDraining
	}
	if _, ok := m.sessions[id]; ok {
		return Info{}, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if len(m.sessions) >= m.cfg.maxSessions() {
		m.cfg.Options.Metrics.Counter(metricQuotaRejected).Inc()
		return Info{}, fmt.Errorf("%w: server holds %d sessions", ErrQuota, len(m.sessions))
	}
	own := 0
	for _, s := range m.sessions {
		if s.meta.Tenant == tenant {
			own++
		}
	}
	if own >= m.cfg.maxPerTenant() {
		m.cfg.Options.Metrics.Counter(metricQuotaRejected).Inc()
		return Info{}, fmt.Errorf("%w: tenant %s holds %d sessions", ErrQuota, tenant, own)
	}

	lane := m.allocLaneLocked(id)
	sess, err := pace.NewSession(m.sessionOptions(id, lane))
	if err != nil {
		return Info{}, err
	}
	s := &session{meta: Meta{ID: id, Tenant: tenant}, lane: lane, sess: sess}
	info := s.publish()
	if m.cfg.DataDir != "" {
		s.dir = filepath.Join(m.cfg.DataDir, id)
		if err := m.fs.MkdirAll(s.dir, 0o755); err != nil {
			return Info{}, err
		}
		if err := WriteMeta(m.fs, s.dir, s.meta); err != nil {
			return Info{}, err
		}
	}
	m.sessions[id] = s
	m.log.Info("session created", "session", id, "tenant", tenant,
		"request_id", RequestID(ctx), "sessions", len(m.sessions))
	return info, nil
}

// allocLaneLocked hands the session its server-trace thread lane and labels
// it in the viewer. Caller holds m.mu.
func (m *Manager) allocLaneLocked(id string) int {
	lane := m.nextLane
	m.nextLane++
	m.cfg.Options.Trace.ThreadName(serverTracePID, lane, "session "+id)
	return lane
}

// sessionOptions derives a session's engine options: the shared clustering
// parameters plus its own observability identity — a logger carrying the
// session attribute and, when tracing, a dedicated engine process lane so
// its per-rank timelines don't interleave with other sessions'.
func (m *Manager) sessionOptions(id string, lane int) pace.Options {
	opts := m.cfg.Options
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("session", id)
	}
	if opts.Trace != nil {
		opts.TracePID = enginePIDBase + lane
		opts.TraceProcess = "engine " + id
	}
	return opts
}

// lookup fetches a live session.
func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// snapshot copies the session map under m.mu, so that the caller can then
// lock each session in turn without holding the manager's lock.
func (m *Manager) snapshot() []*session {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	return all
}

// sessionCount reports how many sessions are live without taking any
// session's lock, so that it never waits on a running batch. Delete removes
// a session from the map before it marks it gone, so the map holds exactly
// the live ones.
func (m *Manager) sessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List returns every live session's published info, sorted by id. It takes
// no session's lock, so that it never waits on a running batch.
func (m *Manager) List() []Info {
	all := m.snapshot()
	out := make([]Info, 0, len(all))
	for _, s := range all {
		out = append(out, *s.info.Load())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns one session's published info without taking its lock.
func (m *Manager) Info(id string) (Info, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Info{}, err
	}
	return *s.info.Load(), nil
}

// Delete removes a session and its state directory. An Add in flight on
// the session finishes first (it holds the session lock); later requests
// that still hold the pointer see gone and report not-found.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gone = true
	if s.degraded {
		// The session's state dies with it; don't leave the gauge stuck.
		s.degraded = false
		m.addDegraded(-1)
	}
	m.log.Info("session deleted", "session", id, "tenant", s.meta.Tenant,
		"ests", s.sess.NumESTs(), "batches", s.sess.Batches())
	if s.dir != "" {
		// Teardown of a dead session is not a durability path: there is no
		// state to keep consistent, so it stays outside the fault seam.
		//pacelint:allow vfsonly session teardown has no crash window to inject into
		return os.RemoveAll(s.dir)
	}
	return nil
}

// BatchResult reports one ingested batch.
type BatchResult struct {
	Info Info `json:"session"`
	// BatchESTs is the batch's size; the remaining fields describe the
	// incremental run it triggered.
	BatchESTs       int   `json:"batch_ests"`
	PairsGenerated  int64 `json:"pairs_generated"`
	FreshPairs      int64 `json:"fresh_pairs"`
	StaleSuppressed int64 `json:"stale_suppressed"`
	BucketsRebuilt  int64 `json:"buckets_rebuilt"`
	BucketsReused   int64 `json:"buckets_reused"`
}

// Add ingests a batch into a session: admission first (bounded queue,
// ErrBusy when full), then the session lock, then the incremental run and
// a durable state save. Records with empty IDs are assigned est<n> names.
//
// The run is bounded by ctx (the HTTP request context: client disconnect
// cancels it) tightened by Config.RequestTimeout and joined to the drain's
// cancel scope, so a dead client, an expired deadline or a drain
// deadline aborts the engine mid-run instead of letting it finish while
// holding the session lock and an admission grant.
//
// Failure semantics ride on Session.Add's atomicity: a failed or canceled
// run leaves the session untouched, so the client can retry the identical
// request. A run that succeeds but fails to persist marks the session
// degraded read-only (ErrDegraded, 503): memory is ahead of disk, ingest
// is refused, and a later ProbeDegraded re-save heals the gap when the
// disk recovers.
func (m *Manager) Add(ctx context.Context, id string, recs []pace.Record) (*BatchResult, error) {
	if len(recs) == 0 {
		return nil, errors.New("serve: empty batch")
	}
	if m.isDraining() {
		return nil, ErrDraining
	}
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	// A drain that hits its deadline cancels m.runs, and so this run.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(m.runs, cancel)()
	if m.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.cfg.RequestTimeout)
		defer cancel()
	}
	reqID := RequestID(ctx)
	tAcq := m.clock.Elapsed()
	if err := m.adm.Acquire(ctx); err != nil {
		m.log.Warn("batch rejected at admission", "session", id,
			"request_id", reqID, "ests", len(recs), "err", err.Error())
		return nil, err
	}
	queueWait := m.clock.Elapsed() - tAcq
	m.cfg.Options.Metrics.Histogram(metricAdmQueueWaitNs, latencyBounds).Observe(int64(queueWait))
	defer m.adm.Release()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if s.degraded {
		return nil, fmt.Errorf("%w: %s: %w", ErrDegraded, id, s.degradedCause)
	}
	if max := m.cfg.MaxESTsPerSession; max > 0 && s.sess.NumESTs()+len(recs) > max {
		return nil, fmt.Errorf("%w: %d + %d ESTs > limit %d", ErrTooLarge, s.sess.NumESTs(), len(recs), max)
	}
	batch := s.sess.Batches() + 1
	m.log.Info("batch ingest starting", "session", id, "request_id", reqID,
		"batch", batch, "ests", len(recs), "queue_wait", queueWait)
	tRun := m.clock.Elapsed()
	base := s.sess.NumESTs()
	seqs := make([]string, len(recs))
	for i := range recs {
		if recs[i].ID == "" {
			recs[i].ID = fmt.Sprintf("est%06d", base+i)
		}
		seqs[i] = recs[i].Seq
	}
	cl, err := s.sess.AddContext(ctx, seqs)
	if err != nil {
		m.log.Error("batch ingest failed; session rolled back", "session", id,
			"request_id", reqID, "batch", batch, "err", err.Error())
		return nil, err
	}
	s.recs = append(s.recs, recs...)
	info := s.publish()
	if s.dir != "" {
		if err := SaveState(m.fs, s.dir, s.sess, s.recs); err != nil {
			s.degraded = true
			s.degradedCause = err
			m.addDegraded(1)
			m.log.Error("batch clustered but not persisted; session degraded read-only", "session", id,
				"request_id", reqID, "batch", batch, "err", err.Error())
			return nil, fmt.Errorf("%w: batch %d clustered in memory but not persisted; "+
				"ingest refused until a probe re-save succeeds: %w", ErrDegraded, batch, err)
		}
	}
	batchDur := m.clock.Elapsed() - tRun
	m.cfg.Options.Metrics.Histogram(metricBatchNs, latencyBounds,
		telemetry.Label{Key: "session", Value: id}).Observe(int64(batchDur))
	if tw := m.cfg.Options.Trace; tw != nil {
		tw.SpanArgs(serverTracePID, s.lane, fmt.Sprintf("batch %d", batch), "serve",
			tRun, batchDur, map[string]any{
				"request_id": reqID, "ests": len(recs),
				"pairs_generated": cl.Stats.PairsGenerated,
			})
	}
	inc := cl.Stats.Incremental
	m.log.Info("batch ingest done", "session", id, "request_id", reqID,
		"batch", batch, "ests", len(recs),
		"pairs_generated", cl.Stats.PairsGenerated,
		"pairs_accepted", cl.Stats.PairsAccepted,
		"clusters", cl.NumClusters, "dur", batchDur)
	return &BatchResult{
		Info:            info,
		BatchESTs:       len(recs),
		PairsGenerated:  cl.Stats.PairsGenerated,
		FreshPairs:      inc.FreshPairs,
		StaleSuppressed: inc.StaleSuppressed,
		BucketsRebuilt:  inc.BucketsRebuilt,
		BucketsReused:   inc.BucketsReused,
	}, nil
}

// Labels returns the session's records and current labels, aligned.
func (m *Manager) Labels(id string) ([]pace.Record, []int, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	recs := append([]pace.Record(nil), s.recs...)
	return recs, s.sess.Labels(), nil
}

// Save persists a session's state now (no-op without a data dir). Add
// already saves after every batch; Save exists for drains and tests.
func (m *Manager) Save(id string) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.saveLocked(m.fs)
}

// ResumeAll restores every session found under DataDir, cross-checking
// each state pair (ErrStateMismatch on a torn or edited directory). The
// resumed sessions are proven label-identical to their pre-restart selves
// by the state pair's construction: the store orders the ESTs and the
// checkpointed union-find fixes the partition over exactly those ESTs.
func (m *Manager) ResumeAll() (int, error) {
	if m.cfg.DataDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(m.cfg.DataDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		ok, err := m.resume(filepath.Join(m.cfg.DataDir, ent.Name()), ent.Name())
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// resume registers the session whose state directory is dir, named name
// under DataDir, and reports whether there was one. A directory with an
// EST store resumes from its state pair; one with only metadata is a
// created-but-never-fed session and resumes empty; one with neither is not
// ours to manage and is skipped. The session's id is its directory's name:
// metadata naming another id, or a name Create would refuse, is an error.
func (m *Manager) resume(dir, name string) (bool, error) {
	var st *State
	switch _, err := os.Stat(filepath.Join(dir, FASTAFile)); {
	case err == nil:
		if st, err = LoadState(dir, m.cfg.Options); err != nil {
			return false, fmt.Errorf("serve: resume %s: %w", name, err)
		}
	case errors.Is(err, os.ErrNotExist):
		st = &State{}
		data, err := os.ReadFile(filepath.Join(dir, MetaFile))
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if err := unmarshalMeta(data, &st.Meta); err != nil {
			return false, fmt.Errorf("serve: resume %s: %w", name, err)
		}
	default:
		return false, err
	}
	meta := st.Meta
	if meta.ID == "" {
		meta.ID = name
	}
	if meta.ID != name {
		return false, fmt.Errorf("serve: resume %s: metadata names session %q", dir, meta.ID)
	}
	if err := validateID("session id", meta.ID); err != nil {
		return false, fmt.Errorf("serve: resume %s: %w", dir, err)
	}
	if meta.Tenant == "" {
		meta.Tenant = "default"
	}
	m.mu.Lock()
	lane := m.allocLaneLocked(meta.ID)
	m.mu.Unlock()
	opts := m.sessionOptions(meta.ID, lane)
	var sess *pace.Session
	var err error
	if len(st.Recs) > 0 {
		sess, err = st.Resume(opts)
	} else {
		sess, err = pace.NewSession(opts)
	}
	if err != nil {
		return false, fmt.Errorf("serve: resume %s: %w", name, err)
	}
	s := &session{meta: meta, dir: dir, lane: lane, sess: sess, recs: st.Recs}
	s.publish()
	m.mu.Lock()
	m.sessions[meta.ID] = s
	m.mu.Unlock()
	m.log.Info("session resumed", "session", meta.ID, "tenant", meta.Tenant,
		"ests", sess.NumESTs(), "batches", sess.Batches())
	return true, nil
}

// drainCancelGrace bounds how long a drain waits, after canceling every
// in-flight run at its deadline, for the engines' cancellation polls to
// fire and the admission queue to empty.
const drainCancelGrace = 2 * time.Second

// Drain performs the graceful-shutdown sequence: refuse new work, wait
// (bounded by ctx) for in-flight batches to finish — canceling the runs
// still going when the deadline passes and giving them a short grace to
// unwind — then save every session. It returns the first save error but
// keeps saving the rest.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	// Create refuses new sessions from here on, so the snapshot is the
	// whole set to save.
	all := m.snapshot()
	m.log.Info("drain started", "sessions", len(all))

	const tick = 5 * time.Millisecond
	for !m.adm.Idle() {
		select {
		case <-ctx.Done():
			// Deadline: abort the in-flight engine runs (each rolls its
			// session back and releases its grant) and wait a bounded
			// grace for the cancellation polls to fire.
			m.cancelRuns()
			as := m.adm.Stats()
			m.log.Warn("drain deadline reached; canceling in-flight batches",
				"inflight", as.InService+as.Waiting, "err", ctx.Err().Error())
			for waited := time.Duration(0); !m.adm.Idle(); waited += tick {
				if waited >= drainCancelGrace {
					m.log.Error("drain: in-flight work survived cancellation")
					return fmt.Errorf("serve: drain: in-flight work outlived the deadline and cancellation: %w", ctx.Err())
				}
				<-time.After(tick)
			}
		case <-time.After(tick):
		}
	}

	var firstErr error
	saved := 0
	for _, s := range all {
		s.mu.Lock()
		if !s.gone {
			if err := s.saveLocked(m.fs); err != nil {
				m.log.Error("drain save failed", "session", s.meta.ID, "err", err.Error())
				if firstErr == nil {
					firstErr = err
				}
			} else {
				saved++
			}
		}
		s.mu.Unlock()
	}
	m.log.Info("drain complete", "sessions", len(all), "saved", saved)
	return firstErr
}

// ProbeDegraded retries persistence for every degraded session and clears
// the flag on success (the full-state rewrite covers everything memory is
// ahead by). It returns how many sessions healed. cmd/paced calls it on a
// timer; tests call it directly after repairing the fault plan.
func (m *Manager) ProbeDegraded() int {
	healed := 0
	for _, s := range m.snapshot() {
		s.mu.Lock()
		if !s.gone && s.degraded {
			if err := s.saveLocked(m.fs); err != nil {
				m.log.Warn("degraded probe: save still failing",
					"session", s.meta.ID, "err", err.Error())
			} else {
				s.degraded = false
				s.degradedCause = nil
				healed++
				m.log.Info("degraded probe: session healed", "session", s.meta.ID,
					"ests", s.sess.NumESTs())
			}
		}
		s.mu.Unlock()
	}
	if healed > 0 {
		m.addDegraded(int64(-healed))
	}
	return healed
}

// DegradedCount reports how many sessions are in degraded read-only mode.
// It takes no lock, so that /healthz never waits on a running batch.
func (m *Manager) DegradedCount() int { return int(m.nDegraded.Load()) }

// addDegraded moves the degraded-session count and its gauge by n.
func (m *Manager) addDegraded(n int64) {
	m.nDegraded.Add(n)
	m.degraded.Add(n)
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Admission exposes the admission controller (handler metrics, tests).
func (m *Manager) Admission() *Admission { return m.adm }

// laneOf reports a live session's thread lane on the server trace process
// (-1 when unknown); the HTTP layer uses it to put a request's span on the
// same timeline as the batch span it admits.
func (m *Manager) laneOf(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sessions[id]; ok {
		return s.lane
	}
	return -1
}

func unmarshalMeta(data []byte, m *Meta) error {
	return json.Unmarshal(data, m)
}
