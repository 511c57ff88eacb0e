package telemetry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, series sorted by
// (family, labels) so the output is deterministic. Histograms render the
// conventional cumulative _bucket/_sum/_count series plus a non-standard
// _max gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.sortedEntries()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	lastFamily := ""
	for _, e := range entries {
		if e.family != lastFamily {
			lastFamily = e.family
			if h, ok := help[e.family]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.family, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.family, promType(e.kind)); err != nil {
				return err
			}
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func promType(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series renders `family{labels,extra} value`.
func series(w io.Writer, family, labels, extra string, value string) error {
	switch {
	case labels == "" && extra == "":
		_, err := fmt.Fprintf(w, "%s %s\n", family, value)
		return err
	case labels == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", family, extra, value)
		return err
	case extra == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", family, labels, value)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s{%s,%s} %s\n", family, labels, extra, value)
		return err
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeEntry(w io.Writer, e *metricEntry) error {
	switch e.kind {
	case kindCounter:
		return series(w, e.family, e.labels, "", strconv.FormatInt(e.c.Value(), 10))
	case kindGauge:
		return series(w, e.family, e.labels, "", strconv.FormatInt(e.g.Value(), 10))
	case kindFloatGauge:
		return series(w, e.family, e.labels, "", formatFloat(e.f.Value()))
	case kindHistogram:
		bounds, counts := e.h.Buckets()
		var cum int64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(bounds)-1 {
				le = strconv.FormatInt(bounds[i], 10)
			}
			if err := series(w, e.family+"_bucket", e.labels, fmt.Sprintf("le=%q", le),
				strconv.FormatInt(cum, 10)); err != nil {
				return err
			}
		}
		if err := series(w, e.family+"_sum", e.labels, "", strconv.FormatInt(e.h.Sum(), 10)); err != nil {
			return err
		}
		if err := series(w, e.family+"_count", e.labels, "", strconv.FormatInt(e.h.Count(), 10)); err != nil {
			return err
		}
		return series(w, e.family+"_max", e.labels, "", strconv.FormatInt(e.h.Max(), 10))
	}
	return nil
}

// Server is a running metrics endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
	err chan error
}

// Serve exposes the registry over HTTP on addr (e.g. "localhost:9090"):
//
//	/metrics        Prometheus text format
//	/debug/pprof/   the standard pprof handlers
//
// It listens immediately (so the caller learns about bad addresses) and
// serves in the background until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// pprof profile/trace responses stream for their whole sampling window,
	// so there is no write timeout — but header and idle timeouts keep a
	// half-open scrape client from pinning a connection forever.
	s := &Server{srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}, ln: ln, err: make(chan error, 1)}
	go func() {
		// A listener that dies mid-run must not be silent: anything other
		// than the orderly Close/Shutdown sentinel is surfaced on Err.
		err := s.srv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err <- err
		}
		close(s.err)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err reports serve failures: if the HTTP server stops for any reason other
// than Close/Shutdown (e.g. the listener dies mid-run), the error is sent
// here. The channel is closed when serving ends, so a receive that yields a
// zero error means an orderly stop. Long-running daemons should select on
// it next to their signal handling.
func (s *Server) Err() <-chan error { return s.err }

// Shutdown stops serving gracefully: the listener closes immediately, then
// in-flight requests are allowed to finish until ctx expires (at which
// point they are cut off as in Close). Safe to call multiple times.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// Deadline hit with requests still in flight: hard-stop them.
		if cerr := s.srv.Close(); cerr != nil {
			return cerr
		}
	}
	return err
}

// Close stops serving immediately, dropping in-flight requests. Prefer
// Shutdown for a graceful drain.
func (s *Server) Close() error { return s.srv.Close() }
