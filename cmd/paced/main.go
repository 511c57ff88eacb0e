// Command paced is the multi-tenant clustering server: a long-running
// daemon wrapping pace.Session behind an HTTP API, so many independent EST
// collections can be clustered incrementally by many clients at once.
//
// Usage:
//
//	paced -addr :8080 -data /var/lib/paced [-metrics-addr :9090] [engine flags]
//
// API (see internal/serve):
//
//	POST   /v1/sessions                 create a session {"id","tenant"}
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            session info
//	DELETE /v1/sessions/{id}            delete a session and its state
//	POST   /v1/sessions/{id}/batches    ingest a batch (FASTA or JSON)
//	GET    /v1/sessions/{id}/labels     labels as TSV (?format=json)
//	GET    /healthz                     liveness and drain state
//
// Concurrency: each session is serialized (pace.Session is
// single-goroutine), different sessions cluster in parallel, and batch
// ingestion is bounded by an admission queue — -admit requests in service,
// -queue waiting, everything beyond rejected with 429 so clients back off.
//
// Durability: with -data, every session persists a crash-consistent state
// directory after each batch (EST store first, checkpoint second — the
// order whose crash windows are recoverable). On start paced resumes every
// session it finds; a torn directory fails with serve.ErrStateMismatch and
// a recovery hint rather than resuming silently wrong.
//
// Shutdown: SIGTERM/SIGINT drains gracefully — new work is refused (503),
// in-flight batches finish (bounded by -drain-timeout; at the deadline they
// are canceled and rolled back), every session is saved, then the listeners
// close.
//
// Robustness: -read-header-timeout/-read-timeout/-idle-timeout bound slow
// clients, -max-batch-bytes caps ingest bodies (413), and -request-timeout
// bounds one ingest end to end — on expiry the engine run is canceled, the
// session rolls back and the client gets 504, safe to retry. A session
// whose post-batch save fails turns degraded read-only (ingest → 503 with
// Retry-After, reads still served); -degraded-probe retries its save until
// the disk heals. -chaos and -chaos-fs inject deterministic engine and
// filesystem faults for testing.
//
// Observability: structured logs on stderr (-log-format json|text,
// -log-level), one access line plus engine lifecycle lines per request,
// all carrying the request's X-Request-ID (client-supplied or minted).
// -trace streams a Chrome trace: HTTP request spans and per-batch spans on
// the server's process lane, each session's engine timelines on its own.
// -metrics-addr serves Prometheus metrics including per-route latency,
// admission queue wait, per-session batch latency and pace_build_info.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pace"
	"pace/internal/serve"
	"pace/internal/telemetry"
)

func main() {
	def := pace.DefaultOptions()
	addr := flag.String("addr", ":8080", "HTTP listen address")
	dataDir := flag.String("data", "", "state root directory; each session persists under <data>/<id> (empty = in-memory only)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar and pprof on this address")
	tracePath := flag.String("trace", "", "write a Chrome trace (request + engine spans) to this file")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "json", "log encoding on stderr: json or text")
	procs := flag.Int("p", 1, "ranks per session run (1 = sequential, >=2 = master+slaves)")
	sim := flag.Bool("sim", false, "run sessions on the simulated parallel machine")
	window := flag.Int("w", def.Window, "suffix bucketing window w")
	psi := flag.Int("psi", def.MinMatch, "promising pair threshold ψ")
	batch := flag.Int("batch", def.BatchSize, "pairs per master-slave interaction")
	maxSessions := flag.Int("max-sessions", 64, "server-wide live session quota")
	maxPerTenant := flag.Int("max-per-tenant", 16, "per-tenant live session quota")
	maxESTs := flag.Int("max-ests", 0, "per-session EST capacity (0 = unlimited)")
	admit := flag.Int("admit", 8, "batch requests serviced concurrently")
	queue := flag.Int("queue", 0, "batch requests allowed to wait for a slot (default 2x -admit)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline for batch ingest (queue wait + engine run); expiry cancels the run, rolls the session back and returns 504 (0 = none)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "time allowed to read a request's headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "time allowed to read a whole request, body included")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is held open")
	maxBatchBytes := flag.Int64("max-batch-bytes", 0, "ingest body cap in bytes; oversized uploads fail with 413 (0 = derive from -max-ests)")
	degradedProbe := flag.Duration("degraded-probe", 15*time.Second, "how often to retry persistence for degraded read-only sessions (0 = never)")
	chaosSpec := flag.String("chaos", "", "engine fault-injection spec (seed=N,crash=RANK:AFTER[:TAG],delay=P:DUR) — testing only")
	chaosFSSpec := flag.String("chaos-fs", "", "filesystem fault-injection spec (seed=N,crash=OP,pwrite=P,ptorn=P,psync=P,prename=P,max=N) — testing only")
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, level, telemetry.NewWallClock())
	if err != nil {
		fatal(err)
	}

	opt := def
	opt.Logger = logger
	opt.Processors = *procs
	opt.Simulated = *sim
	opt.Window = *window
	opt.MinMatch = *psi
	opt.BatchSize = *batch
	if *chaosSpec != "" {
		plan, err := pace.ParseFaultPlan(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		opt.Fault = plan
		logger.Warn("engine chaos plan active", "spec", *chaosSpec)
	}
	if *chaosFSSpec != "" {
		plan, err := pace.ParseFSFaultPlan(*chaosFSSpec)
		if err != nil {
			fatal(err)
		}
		opt.FS = pace.NewFaultyFS(pace.OSFS(), plan)
		logger.Warn("filesystem chaos plan active", "spec", *chaosFSSpec)
	}

	var metricsSrv *pace.MetricsServer
	if *metricsAddr != "" {
		opt.Metrics = pace.NewMetricsRegistry()
		telemetry.RegisterBuildInfo(opt.Metrics)
		srv, err := pace.ServeMetrics(*metricsAddr, opt.Metrics)
		if err != nil {
			fatal(err)
		}
		metricsSrv = srv
		logger.Info("metrics serving", "url", fmt.Sprintf("http://%s/metrics", srv.Addr()))
	}

	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		opt.Trace = telemetry.NewTraceWriter(traceFile)
		logger.Info("trace streaming", "file", *tracePath)
	}

	mgr, err := serve.NewManager(serve.Config{
		Options:              opt,
		DataDir:              *dataDir,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxPerTenant,
		MaxESTsPerSession:    *maxESTs,
		MaxBatchBytes:        *maxBatchBytes,
		Admission:            serve.AdmissionConfig{Grants: *admit, Queue: *queue},
		RequestTimeout:       *requestTimeout,
	})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		n, err := mgr.ResumeAll()
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		if n > 0 {
			logger.Info("sessions resumed from disk", "count", n, "data", *dataDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Header/read/idle timeouts defend the listener against slow or
	// half-open clients; without them one slowloris connection per worker
	// starves real ingest.
	srv := &http.Server{
		Handler:           serve.NewHandler(mgr),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
		close(serveErr)
	}()
	logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()))

	// Degraded sessions (a persistence failure flipped them read-only)
	// re-arm automatically: the probe retries each one's save and clears
	// the flag when the disk accepts writes again.
	probeStop := make(chan struct{})
	if *degradedProbe > 0 && *dataDir != "" {
		go func() {
			tick := time.NewTicker(*degradedProbe)
			defer tick.Stop()
			for {
				select {
				case <-probeStop:
					return
				case <-tick.C:
					if healed := mgr.ProbeDegraded(); healed > 0 {
						logger.Info("degraded sessions healed", "count", healed)
					}
				}
			}
		}()
	}
	defer close(probeStop)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	var metricsErr <-chan error
	if metricsSrv != nil {
		metricsErr = metricsSrv.Err()
	}
	select {
	case sig := <-sigc:
		logger.Info("signal received; draining", "signal", sig.String(), "deadline", *drainTimeout)
	case err, ok := <-serveErr:
		if ok && err != nil {
			fatal(fmt.Errorf("http server: %w", err))
		}
		return
	case err, ok := <-metricsErr:
		if ok && err != nil {
			fatal(fmt.Errorf("metrics server: %w", err))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Order: refuse and finish batch work (saving every session), then
	// close the API listener, then the trace stream and the telemetry
	// endpoint.
	if err := mgr.Drain(ctx); err != nil {
		logger.Error("drain failed", "err", err.Error())
		defer os.Exit(1)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err.Error())
		defer os.Exit(1)
	}
	closeTrace(logger, opt.Trace, traceFile)
	if metricsSrv != nil {
		if err := metricsSrv.Shutdown(ctx); err != nil {
			logger.Error("metrics shutdown failed", "err", err.Error())
		}
	}
	logger.Info("drained, bye")
}

// closeTrace finishes the trace stream, surfacing (not swallowing) any
// write error the stream absorbed mid-run and how many events it cost.
func closeTrace(logger *slog.Logger, trace *telemetry.TraceWriter, f *os.File) {
	if trace == nil {
		return
	}
	if err := trace.Close(); err != nil {
		logger.Error("trace stream failed; trace file incomplete",
			"err", err.Error(), "events_dropped", trace.Dropped())
	} else {
		logger.Info("trace closed", "events", trace.Events(), "file", f.Name())
	}
	if err := f.Close(); err != nil {
		logger.Error("trace file close failed", "err", err.Error())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paced:", err)
	os.Exit(1)
}
