package api

// Observability endpoints and HTTP instrumentation, active when the
// server is constructed with WithMetrics / WithTracer:
//
//	GET /v1/metrics         -> Prometheus text exposition of the registry
//	GET /v1/trace/{group}   -> the last recorded planning trace as JSON
//
// /metrics is also served unversioned (scrapers don't follow
// redirects); its exposition-format body is the one non-envelope
// response besides redirects.
//
// Every handler is additionally wrapped to count requests by handler
// and status code (brsmn_http_requests_total) and observe latency
// (brsmn_http_request_seconds). Without a registry the wrapper is a
// direct call — no status capture, no clock reads.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/obs"
)

// Option configures optional Server subsystems.
type Option func(*Server)

// WithMetrics serves reg on GET /metrics and instruments every handler
// with request/latency series.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithTracer serves rec's last-trace-per-group on GET /trace/{group}.
func WithTracer(rec *obs.TraceRecorder) Option {
	return func(s *Server) { s.tracer = rec }
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: metrics not enabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// TraceResponse is the GET /v1/trace/{group} reply.
type TraceResponse struct {
	Group string          `json:"group"`
	Trace *obs.RouteTrace `json:"trace"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: tracing not enabled")
		return
	}
	group := r.PathValue("group")
	tr := s.tracer.Last(group)
	if tr == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("api: no trace recorded for %q (traces are sampled; route the group first)", group))
		return
	}
	writeData(w, http.StatusOK, TraceResponse{Group: group, Trace: tr})
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// the SSE handler can flush through the instrumentation wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps h with per-handler request counting and latency
// observation. With no registry it returns h unchanged.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	rm := &routeMetrics{reg: s.reg, name: name}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		rm.counter(sw.code).Inc()
		rm.histogram().ObserveDuration(time.Since(t0))
	}
}

// routeMetrics holds one route's resolved instruments, so a request
// costs no series-name formatting and no registry lookup once its
// status code has been seen. Series are still registered on first use,
// in the same order as before resolution was cached, so the exposition
// lists exactly the routes and codes that have been served.
type routeMetrics struct {
	reg  *obs.Registry
	name string

	hist  atomic.Pointer[obs.Histogram]
	mu    sync.Mutex                    // serializes codes updates
	codes atomic.Pointer[[]codeCounter] // copy-on-write; a route sees few codes
}

type codeCounter struct {
	code int
	c    *obs.Counter
}

func (rm *routeMetrics) counter(code int) *obs.Counter {
	if cs := rm.codes.Load(); cs != nil {
		for _, cc := range *cs {
			if cc.code == code {
				return cc.c
			}
		}
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	var cs []codeCounter
	if p := rm.codes.Load(); p != nil {
		cs = *p
	}
	for _, cc := range cs {
		if cc.code == code {
			return cc.c
		}
	}
	c := rm.reg.Counter(
		fmt.Sprintf(`brsmn_http_requests_total{handler=%q,code="%d"}`, rm.name, code),
		"HTTP requests by handler and status code.")
	next := append(cs[:len(cs):len(cs)], codeCounter{code, c})
	rm.codes.Store(&next)
	return c
}

func (rm *routeMetrics) histogram() *obs.Histogram {
	if h := rm.hist.Load(); h != nil {
		return h
	}
	h := rm.reg.Histogram(`brsmn_http_request_seconds{handler=`+strconv.Quote(rm.name)+`}`,
		"HTTP request latency by handler.", obs.SecondsBuckets())
	rm.hist.Store(h)
	return h
}
