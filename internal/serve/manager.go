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
	metricSessions       = "pace_server_sessions"
	metricAdmInService   = "pace_server_admission_in_service"
	metricAdmWaiting     = "pace_server_admission_waiting"
	metricAdmHighWater   = "pace_server_admission_high_water"
	metricAdmAdmitted    = "pace_server_admitted_total"
	metricAdmRejected    = "pace_server_rejected_total"
	metricAdmQueueWaitNs = "pace_server_admission_queue_wait_ns"
	metricQuotaRejected  = "pace_server_quota_rejected_total"
	metricSessionESTs    = "pace_server_session_ests"
	metricSessionBatches = "pace_server_session_batches_total"
	metricBatchNs        = "pace_server_batch_ns"
	metricDegraded       = "pace_server_degraded"
)

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

	mu       sync.Mutex
	sessions map[string]*session
	nextLane int
	draining bool
	// inflight registers a cancel func per running batch, so a drain that
	// hits its deadline can abort the engine runs instead of waiting them
	// out while they hold session locks and admission grants.
	inflight   map[int]context.CancelFunc
	nextCancel int
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
		inflight: make(map[int]context.CancelFunc),
	}
	if r := cfg.Options.Metrics; r != nil {
		r.Help(metricSessions, "Live sessions owned by the manager.")
		r.Help(metricAdmAdmitted, "Requests granted an admission slot.")
		r.Help(metricAdmRejected, "Requests rejected with a full admission queue (HTTP 429).")
		r.Help(metricAdmQueueWaitNs, "Time a batch request waited for an admission grant, nanoseconds.")
		r.Help(metricQuotaRejected, "Session creations rejected over quota.")
		r.Help(metricSessionESTs, "ESTs held per session.")
		r.Help(metricSessionBatches, "Batches ingested per session.")
		r.Help(metricBatchNs, "End-to-end latency of one ingested batch (admitted to clustered+saved), nanoseconds.")
		r.Help(metricDegraded, "Sessions in degraded read-only mode (persistence failing).")
	}
	if tw := cfg.Options.Trace; tw != nil {
		tw.ProcessName(serverTracePID, "paced server")
		tw.ThreadName(serverTracePID, 0, "control")
	}
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

func (s *session) infoLocked() Info {
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
		m.counter(metricQuotaRejected).Inc()
		return Info{}, fmt.Errorf("%w: server holds %d sessions", ErrQuota, len(m.sessions))
	}
	own := 0
	for _, s := range m.sessions {
		if s.meta.Tenant == tenant {
			own++
		}
	}
	if own >= m.cfg.maxPerTenant() {
		m.counter(metricQuotaRejected).Inc()
		return Info{}, fmt.Errorf("%w: tenant %s holds %d sessions", ErrQuota, tenant, own)
	}

	lane := m.allocLaneLocked(id)
	sess, err := pace.NewSession(m.sessionOptions(id, lane))
	if err != nil {
		return Info{}, err
	}
	s := &session{meta: Meta{ID: id, Tenant: tenant}, lane: lane, sess: sess}
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
	m.gauge(metricSessions).Set(int64(len(m.sessions)))
	m.log.Info("session created", "session", id, "tenant", tenant,
		"request_id", RequestID(ctx), "sessions", len(m.sessions))
	return Info{ID: id, Tenant: tenant}, nil
}

// allocLaneLocked hands the session its server-trace thread lane and labels
// it in the viewer. Caller holds m.mu.
func (m *Manager) allocLaneLocked(id string) int {
	lane := m.nextLane
	m.nextLane++
	if tw := m.cfg.Options.Trace; tw != nil {
		tw.ThreadName(serverTracePID, lane, "session "+id)
	}
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

// List returns every live session's info, sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(all))
	for _, s := range all {
		s.mu.Lock()
		if !s.gone {
			out = append(out, s.infoLocked())
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns one session's info.
func (m *Manager) Info(id string) (Info, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.infoLocked(), nil
}

// Delete removes a session and its state directory. An Add in flight on
// the session finishes first (it holds the session lock); later requests
// that still hold the pointer see gone and report not-found.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.gauge(metricSessions).Set(int64(len(m.sessions)))
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
		m.gauge(metricDegraded).Add(-1)
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
// cancels it) tightened by Config.RequestTimeout and registered with the
// drain machinery, so a dead client, an expired deadline or a drain
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
	if m.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.RequestTimeout)
		defer cancel()
	}
	ctx, unregister := m.registerInflight(ctx)
	defer unregister()
	reqID := RequestID(ctx)
	tAcq := m.clock.Elapsed()
	if err := m.adm.Acquire(ctx); err != nil {
		m.pushAdmissionMetrics()
		m.log.Warn("batch rejected at admission", "session", id,
			"request_id", reqID, "ests", len(recs), "err", err.Error())
		return nil, err
	}
	queueWait := m.clock.Elapsed() - tAcq
	m.histogram(metricAdmQueueWaitNs).Observe(int64(queueWait))
	defer func() {
		m.adm.Release()
		m.pushAdmissionMetrics()
	}()
	m.pushAdmissionMetrics()

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
	if s.dir != "" {
		if err := SaveState(m.fs, s.dir, s.sess, s.recs); err != nil {
			s.degraded = true
			s.degradedCause = err
			m.gauge(metricDegraded).Add(1)
			m.log.Error("batch clustered but not persisted; session degraded read-only", "session", id,
				"request_id", reqID, "batch", batch, "err", err.Error())
			return nil, fmt.Errorf("%w: batch %d clustered in memory but not persisted; "+
				"ingest refused until a probe re-save succeeds: %w", ErrDegraded, batch, err)
		}
	}
	batchDur := m.clock.Elapsed() - tRun
	if r := m.cfg.Options.Metrics; r != nil {
		lbl := telemetry.Label{Key: "session", Value: id}
		r.Gauge(metricSessionESTs, lbl).Set(int64(s.sess.NumESTs()))
		r.Counter(metricSessionBatches, lbl).Inc()
		r.Histogram(metricBatchNs, telemetry.ExpBounds(1000, 4, 12), lbl).Observe(int64(batchDur))
	}
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
		Info:            s.infoLocked(),
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
		dir := filepath.Join(m.cfg.DataDir, ent.Name())
		if _, err := os.Stat(filepath.Join(dir, FASTAFile)); errors.Is(err, os.ErrNotExist) {
			// A created-but-never-fed session: resume it empty if it has
			// metadata, otherwise it is not ours to manage.
			if err := m.resumeEmpty(dir, ent.Name()); err != nil {
				return n, err
			}
			n++
			continue
		}
		st, err := LoadState(dir, m.cfg.Options)
		if err != nil {
			return n, fmt.Errorf("serve: resume %s: %w", ent.Name(), err)
		}
		meta := st.Meta
		if meta.ID == "" {
			meta.ID = ent.Name()
		}
		if meta.Tenant == "" {
			meta.Tenant = "default"
		}
		m.mu.Lock()
		lane := m.allocLaneLocked(meta.ID)
		m.mu.Unlock()
		sess, err := st.Resume(m.sessionOptions(meta.ID, lane))
		if err != nil {
			return n, fmt.Errorf("serve: resume %s: %w", ent.Name(), err)
		}
		m.mu.Lock()
		m.sessions[meta.ID] = &session{meta: meta, dir: dir, lane: lane, sess: sess, recs: st.Recs}
		m.gauge(metricSessions).Set(int64(len(m.sessions)))
		m.mu.Unlock()
		if r := m.cfg.Options.Metrics; r != nil {
			r.Gauge(metricSessionESTs, telemetry.Label{Key: "session", Value: meta.ID}).Set(int64(sess.NumESTs()))
		}
		m.log.Info("session resumed", "session", meta.ID, "tenant", meta.Tenant,
			"ests", sess.NumESTs(), "batches", sess.Batches())
		n++
	}
	return n, nil
}

func (m *Manager) resumeEmpty(dir, name string) error {
	meta := Meta{ID: name, Tenant: "default"}
	if data, err := os.ReadFile(filepath.Join(dir, MetaFile)); err == nil {
		if err := unmarshalMeta(data, &meta); err != nil {
			return fmt.Errorf("serve: resume %s: %w", name, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	m.mu.Lock()
	lane := m.allocLaneLocked(meta.ID)
	m.mu.Unlock()
	sess, err := pace.NewSession(m.sessionOptions(meta.ID, lane))
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.sessions[meta.ID] = &session{meta: meta, dir: dir, lane: lane, sess: sess}
	m.gauge(metricSessions).Set(int64(len(m.sessions)))
	m.mu.Unlock()
	m.log.Info("session resumed", "session", meta.ID, "tenant", meta.Tenant, "ests", 0, "batches", 0)
	return nil
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
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	m.log.Info("drain started", "sessions", len(all))

	const tick = 5 * time.Millisecond
	for !m.adm.Idle() {
		select {
		case <-ctx.Done():
			// Deadline: abort the in-flight engine runs (each rolls its
			// session back and releases its grant) and wait a bounded
			// grace for the cancellation polls to fire.
			n := m.cancelInflight()
			m.log.Warn("drain deadline reached; canceling in-flight batches",
				"inflight", n, "err", ctx.Err().Error())
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

// registerInflight derives a cancelable context for one batch run and
// registers its cancel func so Drain can abort it at the drain deadline.
// The returned unregister releases the slot (and the context's resources).
func (m *Manager) registerInflight(ctx context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(ctx)
	m.mu.Lock()
	id := m.nextCancel
	m.nextCancel++
	m.inflight[id] = cancel
	m.mu.Unlock()
	return ctx, func() {
		m.mu.Lock()
		delete(m.inflight, id)
		m.mu.Unlock()
		cancel()
	}
}

// cancelInflight aborts every registered batch run and reports how many.
func (m *Manager) cancelInflight() int {
	m.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(m.inflight))
	for _, c := range m.inflight {
		cancels = append(cancels, c)
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return len(cancels)
}

// ProbeDegraded retries persistence for every degraded session and clears
// the flag on success (the full-state rewrite covers everything memory is
// ahead by). It returns how many sessions healed. cmd/paced calls it on a
// timer; tests call it directly after repairing the fault plan.
func (m *Manager) ProbeDegraded() int {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	healed := 0
	for _, s := range all {
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
		m.gauge(metricDegraded).Add(int64(-healed))
	}
	return healed
}

// DegradedCount reports how many sessions are in degraded read-only mode.
func (m *Manager) DegradedCount() int {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	n := 0
	for _, s := range all {
		s.mu.Lock()
		if !s.gone && s.degraded {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Admission exposes the admission controller (handler metrics, tests).
func (m *Manager) Admission() *Admission { return m.adm }

// gauge is a nil-safe registry accessor for unlabeled server gauges.
func (m *Manager) gauge(family string) *telemetry.Gauge {
	if m.cfg.Options.Metrics == nil {
		return &telemetry.Gauge{}
	}
	return m.cfg.Options.Metrics.Gauge(family)
}

// counter is a nil-safe registry accessor for unlabeled server counters.
func (m *Manager) counter(family string) *telemetry.Counter {
	if m.cfg.Options.Metrics == nil {
		return &telemetry.Counter{}
	}
	return m.cfg.Options.Metrics.Counter(family)
}

// histogram is a nil-safe accessor for unlabeled server latency histograms.
func (m *Manager) histogram(family string) *telemetry.Histogram {
	if m.cfg.Options.Metrics == nil {
		return telemetry.NewHistogram(nil)
	}
	return m.cfg.Options.Metrics.Histogram(family, telemetry.ExpBounds(1000, 4, 12))
}

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

func (m *Manager) pushAdmissionMetrics() {
	r := m.cfg.Options.Metrics
	if r == nil {
		return
	}
	st := m.adm.Stats()
	r.Gauge(metricAdmInService).Set(int64(st.InService))
	r.Gauge(metricAdmWaiting).Set(int64(st.Waiting))
	r.Gauge(metricAdmHighWater).Set(int64(st.HighWater))
	setCounter(r.Counter(metricAdmAdmitted), st.Admitted)
	setCounter(r.Counter(metricAdmRejected), st.Rejected)
}

// setCounter advances a monotonic counter to an absolute value.
func setCounter(c *telemetry.Counter, want int64) {
	if d := want - c.Value(); d > 0 {
		c.Add(d)
	}
}

func unmarshalMeta(data []byte, m *Meta) error {
	return json.Unmarshal(data, m)
}
