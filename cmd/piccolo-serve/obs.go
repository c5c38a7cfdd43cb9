// HTTP-layer observability (DESIGN.md §11): every route is wrapped in
// one middleware that stamps a request ID, counts in-flight requests,
// records a per-endpoint latency histogram and a {path,code} request
// counter into the runner's shared obs.Registry, and emits one
// structured (JSON-line) access-log record. GET /metrics exports the
// whole registry in Prometheus text format; /healthz reports build and
// cache state; /stats folds the per-endpoint latency summaries in next
// to the cache counters. net/http/pprof is mounted only behind -pprof —
// profiling endpoints expose heap contents and must be opted into.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/obs"
)

// endpointMetrics is the pre-registered per-route instrument set. The
// {path,code} request counters cannot be pre-registered — a series exists
// from the first response with its code, not before — so each is resolved in
// the registry once and kept in codes; after that the request path touches no
// registry lock and formats no label.
type endpointMetrics struct {
	path     string
	latency  *obs.Histogram
	inFlight *obs.Gauge
	reg      *obs.Registry
	codes    sync.Map // int status code → *obs.Counter
}

// requests returns the endpoint's piccolo_http_requests_total counter for one
// status code.
func (m *endpointMetrics) requests(code int) *obs.Counter {
	if c, ok := m.codes.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := m.reg.Counter("piccolo_http_requests_total", "HTTP requests by endpoint and status code.",
		obs.L("path", m.path), obs.L("code", strconv.Itoa(code)))
	m.codes.Store(code, c)
	return c
}

// statusWriter captures the response code and byte count for the access
// log and the request counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// accessRecord is one JSON access-log line. Fields are flat and stable so
// the log is grep- and jq-friendly.
type accessRecord struct {
	Time   string  `json:"ts"`
	ID     string  `json:"id"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Status int     `json:"status"`
	DurMS  float64 `json:"dur_ms"`
	Bytes  int     `json:"bytes"`
	Remote string  `json:"remote,omitempty"`
}

// endpoint registers the per-route instruments in the shared registry.
func (s *server) endpoint(path string) *endpointMetrics {
	reg := s.runner.Metrics()
	m := &endpointMetrics{
		path: path,
		reg:  reg,
		latency: reg.Histogram("piccolo_http_request_seconds",
			"HTTP request latency by endpoint.", obs.L("path", path)),
		inFlight: reg.Gauge("piccolo_http_in_flight",
			"HTTP requests currently being served, by endpoint.", obs.L("path", path)),
	}
	s.endpoints = append(s.endpoints, m)
	return m
}

// instrument wraps h with request-ID stamping, in-flight accounting,
// latency recording and access logging for one route.
func (s *server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	m := s.endpoint(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		m.inFlight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		m.inFlight.Dec()
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := time.Since(start)
		m.latency.Observe(dur.Nanoseconds())
		m.requests(sw.code).Inc()
		if s.access != nil {
			line, err := json.Marshal(accessRecord{
				Time:   start.UTC().Format(time.RFC3339Nano),
				ID:     id,
				Method: r.Method,
				Path:   path,
				Status: sw.code,
				DurMS:  float64(dur.Nanoseconds()) / 1e6,
				Bytes:  sw.bytes,
				Remote: r.RemoteAddr,
			})
			if err == nil {
				s.access.Printf("%s", line)
			}
		}
	}
}

// newBootID returns a short random prefix distinguishing this process's
// request IDs from a restarted instance's.
func newBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// buildVersion extracts the module version and VCS revision baked into
// the binary ("(devel)" and "" under plain go test/go run).
func buildVersion() (version, revision string) {
	version = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return version, ""
	}
	if info.Main.Version != "" {
		version = info.Main.Version
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return version, revision
}

// handleMetrics serves the whole registry in Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.runner.Metrics()); err != nil {
		// Headers are gone; all we can do is log.
		log.Printf("piccolo-serve: writing /metrics: %v", err)
	}
}

// healthResponse is the /healthz body: build identity plus enough cache
// state to tell a cold instance from a warm one (satellite: bare 200s
// say nothing about what is actually serving).
type healthResponse struct {
	Status       string                  `json:"status"`
	Version      string                  `json:"version"`
	Revision     string                  `json:"revision,omitempty"`
	GoVersion    string                  `json:"go_version"`
	GraphsLoaded int                     `json:"graphs_loaded"`
	Workers      int                     `json:"workers"`
	UptimeS      float64                 `json:"uptime_s"`
	Kernels      []algorithms.Capability `json:"kernels"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	version, revision := buildVersion()
	s.writeJSON(w, healthResponse{
		Status:       "ok",
		Version:      version,
		Revision:     revision,
		GoVersion:    runtime.Version(),
		GraphsLoaded: s.runner.GraphsLoaded(),
		Workers:      s.runner.Workers(),
		UptimeS:      time.Since(s.started).Seconds(),
		Kernels:      algorithms.Capabilities(),
	})
}

// mountPprof exposes net/http/pprof on the mux (behind the -pprof flag).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
