package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"pace"
	"pace/internal/telemetry"
)

// HTTP metric families, labeled by route pattern (and response class).
const (
	metricHTTPRequestNs = "pace_http_request_ns"
	metricHTTPResponses = "pace_http_responses_total"
	metricHTTPInFlight  = "pace_http_in_flight"
)

// NewHandler exposes the manager's session lifecycle over HTTP:
//
//	POST   /v1/sessions                 {"id":"...","tenant":"..."} → 201
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            one session's info
//	DELETE /v1/sessions/{id}            drop a session and its state
//	POST   /v1/sessions/{id}/batches    ingest a batch (JSON or FASTA body)
//	GET    /v1/sessions/{id}/labels     current labels (?format=tsv|json)
//	GET    /healthz                     liveness + drain state
//
// A batch body is JSON {"ests":[{"id":"...","seq":"ACGT..."},...]} when
// its Content-Type contains "json", and FASTA otherwise (e.g.
// text/x-fasta). Backpressure surfaces as 429 (admission queue full),
// drain as 503.
//
// Every route is instrumented: the request adopts (or is minted) an
// X-Request-ID echoed on the response, carried through the context into
// the manager's logs and trace spans, and returned in error bodies;
// per-route latency, in-flight and response-class series land on the
// manager's metrics registry.
func NewHandler(m *Manager) http.Handler {
	r := m.cfg.Options.Metrics
	r.Help(metricHTTPRequestNs, "HTTP request latency by route, nanoseconds.")
	r.Help(metricHTTPResponses, "HTTP responses by route and status class.")
	r.Help(metricHTTPInFlight, "HTTP requests currently being served.")
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, m.instrument(route, h))
	}
	handle("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID     string `json:"id"`
			Tenant string `json:"tenant"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, r, fmt.Errorf("serve: invalid request body: %w", err))
			return
		}
		info, err := m.Create(r.Context(), req.ID, req.Tenant)
		if err != nil {
			httpError(w, r, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	handle("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": m.List()})
	})
	handle("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := m.Info(r.PathValue("id"))
		if err != nil {
			httpError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	handle("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.PathValue("id")); err != nil {
			httpError(w, r, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle("POST /v1/sessions/{id}/batches", func(w http.ResponseWriter, r *http.Request) {
		// Cap the body before reading a byte: an oversized or unbounded
		// upload fails with 413 instead of buffering without limit.
		r.Body = http.MaxBytesReader(w, r.Body, m.maxBatchBytes())
		recs, err := decodeBatch(r)
		if err != nil {
			httpError(w, r, err)
			return
		}
		res, err := m.Add(r.Context(), r.PathValue("id"), recs)
		if err != nil {
			httpError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	handle("GET /v1/sessions/{id}/labels", func(w http.ResponseWriter, r *http.Request) {
		recs, labels, err := m.Labels(r.PathValue("id"))
		if err != nil {
			httpError(w, r, err)
			return
		}
		switch format := r.URL.Query().Get("format"); format {
		case "", "tsv":
			w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
			for i, rec := range recs {
				fmt.Fprintf(w, "%s\t%d\n", rec.ID, labels[i])
			}
		case "json":
			type row struct {
				ID    string `json:"id"`
				Label int    `json:"label"`
			}
			rows := make([]row, len(recs))
			for i, rec := range recs {
				rows[i] = row{ID: rec.ID, Label: labels[i]}
			}
			writeJSON(w, http.StatusOK, map[string]any{"labels": rows})
		default:
			httpError(w, r, fmt.Errorf("serve: unknown format %q (want tsv or json)", format))
		}
	})
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		degraded := m.DegradedCount()
		if degraded > 0 {
			// Still 200: the server serves reads and healthy sessions;
			// the status and count flag the persistence trouble.
			status = "degraded"
		}
		if m.isDraining() {
			status = "draining"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{
			"status":    status,
			"sessions":  m.sessionCount(),
			"degraded":  degraded,
			"admission": m.Admission().Stats(),
		})
	})
	return mux
}

// statusWriter captures the response status for metrics, logs and spans.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// classOf buckets a status code into its Prometheus-friendly class label.
func classOf(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// instrument wraps one registered route with the request-scoped
// observability triad: an adopted-or-minted request id (context + echo
// header), route-labeled latency/in-flight/response-class metrics, a span
// on the server's trace process — on the owning session's lane when the
// route names one, so the batch span it admits nests inside — and one
// structured access-log line carrying all of it.
func (m *Manager) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		ctx := WithRequestID(r.Context(), reqID)
		w.Header().Set(RequestIDHeader, reqID)

		reg := m.cfg.Options.Metrics
		reg.Gauge(metricHTTPInFlight).Add(1)
		t0 := m.clock.Elapsed()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		dur := m.clock.Elapsed() - t0
		reg.Gauge(metricHTTPInFlight).Add(-1)

		routeLbl := telemetry.Label{Key: "route", Value: route}
		reg.Histogram(metricHTTPRequestNs, latencyBounds, routeLbl).Observe(int64(dur))
		reg.Counter(metricHTTPResponses, routeLbl,
			telemetry.Label{Key: "class", Value: classOf(sw.code)}).Inc()
		sessionID := r.PathValue("id")
		if tw := m.cfg.Options.Trace; tw != nil {
			lane := 0 // control lane; session lanes start at 1
			if sessionID != "" {
				if l := m.laneOf(sessionID); l > 0 {
					lane = l
				}
			}
			tw.SpanArgs(serverTracePID, lane, route, "http", t0, dur,
				map[string]any{"request_id": reqID, "status": sw.code})
		}
		attrs := []any{
			"request_id", reqID, "route", route, "method", r.Method,
			"path", r.URL.Path, "status", sw.code, "dur", dur,
		}
		if sessionID != "" {
			attrs = append(attrs, "session", sessionID)
		}
		m.log.Info("http request", attrs...)
	}
}

// maxBatchBytes resolves the ingest body cap: the configured value, or a
// default derived from the per-session EST quota (a generous ~4KiB per
// allowed EST, clamped to [1MiB, 64MiB]; 64MiB when the quota is
// unlimited).
func (m *Manager) maxBatchBytes() int64 {
	if m.cfg.MaxBatchBytes > 0 {
		return m.cfg.MaxBatchBytes
	}
	const (
		perEST = 4 << 10
		floor  = 1 << 20
		cap64  = 64 << 20
	)
	if q := m.cfg.MaxESTsPerSession; q > 0 {
		b := int64(q) * perEST
		if b < floor {
			return floor
		}
		if b > cap64 {
			return cap64
		}
		return b
	}
	return cap64
}

// decodeBatch parses a batch request body as JSON records or FASTA. A body
// that overruns the MaxBytesReader cap surfaces as ErrTooLarge (413).
func decodeBatch(r *http.Request) ([]pace.Record, error) {
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") {
		var req struct {
			ESTs []pace.Record `json:"ests"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, wrapTooLarge(fmt.Errorf("serve: invalid batch body: %w", err))
		}
		return req.ESTs, nil
	}
	recs, err := pace.ReadFASTA(r.Body)
	if err != nil {
		return nil, wrapTooLarge(fmt.Errorf("serve: invalid FASTA batch: %w", err))
	}
	return recs, nil
}

// wrapTooLarge folds a MaxBytesReader overflow into ErrTooLarge so the
// error mapper returns 413 with the request id, like any other size
// rejection.
func wrapTooLarge(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("%w: request body exceeds %d bytes", ErrTooLarge, mbe.Limit)
	}
	return err
}

// httpError maps manager errors to HTTP statuses and a JSON error body
// carrying the request id, so a client can quote the exact id when
// reporting a failure the server logged.
func httpError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrBusy), errors.Is(err, ErrQuota):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDegraded):
		// Read-only until the degraded probe heals the disk; tell the
		// client when to come back.
		w.Header().Set("Retry-After", "5")
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrStateMismatch):
		code = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired mid-run; the session rolled
		// back, so a retry against a less loaded server is safe.
		code = http.StatusGatewayTimeout
	}
	body := map[string]string{"error": err.Error()}
	if id := RequestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
