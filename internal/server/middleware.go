package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync/atomic"
	"time"

	"igdb/internal/obs"
)

// statusWriter records the response status and request ID for logs, metrics,
// and error bodies.
type statusWriter struct {
	http.ResponseWriter
	status int
	reqID  string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

type ctxKey int

const (
	requestIDKey ctxKey = iota
	slotKey
)

// limiterSlot is one concurrency-limiter slot. The request holds it, and so
// does any work the request hands to another goroutine (hold); the slot
// frees when its last holder releases it, so the limiter counts work that
// is still running, not handlers that have returned.
type limiterSlot struct {
	sem  chan struct{}
	refs atomic.Int32
}

// heldSlot returns the request's limiter slot, or nil on an unlimited route.
func heldSlot(r *http.Request) *limiterSlot {
	sl, _ := r.Context().Value(slotKey).(*limiterSlot)
	return sl
}

func (sl *limiterSlot) hold() {
	if sl != nil {
		sl.refs.Add(1)
	}
}

func (sl *limiterSlot) release() {
	if sl != nil && sl.refs.Add(-1) == 0 {
		<-sl.sem
	}
}

// RequestID returns the request's ID ("" when the middleware did not run).
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// reqCounter disambiguates request IDs generated in the same nanosecond.
var reqCounter atomic.Uint64

// newRequestID generates a process-unique request ID.
func newRequestID() string {
	return fmt.Sprintf("%x-%x", time.Now().UnixNano(), reqCounter.Add(1))
}

// maxRequestIDLen caps caller-provided X-Request-ID values so a hostile
// client cannot bloat logs.
const maxRequestIDLen = 128

// requestID accepts the caller's X-Request-ID (truncated to a sane length)
// or generates one, and echoes it on the response.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	if id == "" {
		id = newRequestID()
	}
	return id
}

// wrap applies the standard middleware stack to one endpoint: request-ID
// assignment, panic recovery, inflight accounting, the concurrency limiter
// (unless the endpoint is exempt, like /healthz and /metrics), a per-request
// timeout, metrics, and the structured access log.
func (s *Server) wrap(route string, limited bool, h http.HandlerFunc) http.Handler {
	rs := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w, reqID: reqID}
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, reqID))
		s.metrics.inflight.Add(1)
		defer func() {
			s.metrics.inflight.Add(-1)
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				s.logger.Error("panic recovered",
					obs.F("method", r.Method), obs.F("path", r.URL.Path),
					obs.F("request_id", reqID), obs.F("panic", rec),
					obs.F("stack", string(debug.Stack())))
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(t0)
			s.metrics.observe(rs, status, elapsed)
			s.logger.Info("access",
				obs.F("method", r.Method), obs.F("path", r.URL.RequestURI()),
				obs.F("route", route), obs.F("status", status),
				obs.F("dur_ms", fmt.Sprintf("%.3f", float64(elapsed)/float64(time.Millisecond))),
				obs.F("remote", r.RemoteAddr), obs.F("request_id", reqID))
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		if limited {
			// Data routes need a snapshot; a follower that has never synced
			// has none yet. Control routes (/healthz, /metrics,
			// /admin/rebuild) stay up so the condition is observable and
			// fixable.
			if s.fetcher != nil && s.current() == nil {
				writeError(sw, http.StatusServiceUnavailable,
					"no snapshot yet: replication from %s has not succeeded", s.cfg.LeaderURL)
				return
			}
			select {
			case s.sem <- struct{}{}:
				sl := &limiterSlot{sem: s.sem}
				sl.refs.Store(1)
				defer sl.release()
				r = r.WithContext(context.WithValue(ctx, slotKey, sl))
			case <-ctx.Done():
				s.metrics.rejected.Add(1)
				writeError(sw, http.StatusServiceUnavailable, "server saturated")
				return
			}
		}
		h(sw, r)
	})
}

// routes wires every endpoint into the mux.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /sql", s.wrap("/sql", true, s.handleSQL))
	s.mux.Handle("GET /tables", s.wrap("/tables", true, s.handleTables))
	s.mux.Handle("GET /export/{layer}", s.wrap("/export", true, s.handleExport))
	s.mux.Handle("GET /footprint/{asn}", s.wrap("/footprint", true, s.handleFootprint))
	s.mux.Handle("GET /path", s.wrap("/path", true, s.handlePath))
	s.mux.Handle("POST /admin/rebuild", s.wrap("/admin/rebuild", false, s.handleRebuild))
	s.mux.Handle("GET /healthz", s.wrap("/healthz", false, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.wrap("/metrics", false, s.handleMetrics))
	s.mux.Handle("GET /debug/queries", s.wrap("/debug/queries", false, s.handleQueryLog))
	s.mux.Handle("GET /debug/statements", s.wrap("/debug/statements", false, s.handleStatements))
	if s.cfg.Leader {
		// Replication traffic is exempt from the query limiter: a saturated
		// query tier must not starve followers into staleness.
		s.mux.Handle("GET /replica/manifest", s.wrap("/replica/manifest", false, s.handleReplicaManifest))
		s.mux.Handle("GET /replica/chunk/{hash}", s.wrap("/replica/chunk", false, s.handleReplicaChunk))
	}
	if s.cfg.EnablePprof {
		// The pprof handlers manage their own output; they bypass wrap so
		// profiles are not distorted by the request timeout.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}
