package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"piccolo/internal/obs"
)

// TestAdmissionInflightCap: the cap sheds the excess request instantly
// and recovers as soon as a slot frees.
func TestAdmissionInflightCap(t *testing.T) {
	a := newAdmission(obs.NewRegistry(), 2, 0, time.Second, 1)
	rel1, _, ok := a.admit()
	if !ok {
		t.Fatal("first admit refused")
	}
	rel2, _, ok := a.admit()
	if !ok {
		t.Fatal("second admit refused under cap 2")
	}
	if _, retry, ok := a.admit(); ok {
		t.Fatal("third admit accepted over cap 2")
	} else if retry <= 0 {
		t.Fatalf("shed without a retry hint: %v", retry)
	}
	if a.shedInflight.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", a.shedInflight.Value())
	}
	rel1()
	rel3, _, ok := a.admit()
	if !ok {
		t.Fatal("admit refused after a release")
	}
	rel3()
	rel2()
	if n := a.inflight.Load(); n != 0 {
		t.Fatalf("in-flight gauge = %d after all releases, want 0", n)
	}
}

// TestAdmissionSLOBreaker drives the windowed-p99 state machine through
// its full cycle with hand-fed histograms and explicit ticks: sustained
// overload opens the breaker (hysteresis: one bad window does not), idle
// or healthy windows close it again.
func TestAdmissionSLOBreaker(t *testing.T) {
	slo := 10 * time.Millisecond
	a := newAdmission(obs.NewRegistry(), 0, slo, time.Second, 2)
	h := obs.NewHistogram()
	a.watch(h)

	slow := (50 * time.Millisecond).Nanoseconds()
	fast := (1 * time.Millisecond).Nanoseconds()

	// One overloaded window: not sustained, still admitting.
	for i := 0; i < 100; i++ {
		h.Observe(slow)
	}
	a.tick()
	if a.shedding.Load() {
		t.Fatal("breaker opened after a single bad window (sustain 2)")
	}
	if got := a.p99(); got <= slo {
		t.Fatalf("window p99 = %v, want > SLO %v", got, slo)
	}
	// A healthy window in between resets the streak.
	for i := 0; i < 100; i++ {
		h.Observe(fast)
	}
	a.tick()
	if a.shedding.Load() {
		t.Fatal("breaker opened on a healthy window")
	}
	// Two consecutive overloaded windows: open.
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			h.Observe(slow)
		}
		a.tick()
	}
	if !a.shedding.Load() {
		t.Fatal("breaker closed after sustained overload")
	}
	if _, retry, ok := a.admit(); ok || retry <= 0 {
		t.Fatalf("shedding breaker admitted (ok=%v retry=%v)", ok, retry)
	}
	if a.shedSLO.Value() != 1 {
		t.Fatalf("slo shed counter = %d, want 1", a.shedSLO.Value())
	}
	// One idle window is not enough to close it...
	a.tick()
	if !a.shedding.Load() {
		t.Fatal("breaker closed after one idle window (sustain 2)")
	}
	// ...two are.
	a.tick()
	if a.shedding.Load() {
		t.Fatal("breaker still open after two idle windows")
	}
	if _, _, ok := a.admit(); !ok {
		t.Fatal("recovered breaker refused a request")
	}
}

// TestGateSheds429: a shedding server answers work endpoints with 429 +
// Retry-After and a JSON error body, exports the shed counters on
// /metrics, and keeps the read-only endpoints ungated.
func TestGateSheds429(t *testing.T) {
	s := newServer(2)
	s.adm = newAdmission(s.runner.Metrics(), 0, time.Millisecond, time.Second, 1)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	s.adm.shedding.Store(true) // force the breaker open, no timers involved

	resp := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("shed body not a JSON error: %q", body)
	}

	// Observability endpoints stay reachable while shedding — that is the
	// whole point of shedding.
	for _, path := range []string{"/metrics", "/stats", "/healthz"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil || r2.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while shedding: %v %v", path, err, r2)
		}
		if path == "/metrics" {
			b, _ := io.ReadAll(r2.Body)
			for _, metric := range []string{
				"piccolo_http_shed_total", "piccolo_http_admitted_in_flight", "piccolo_http_shedding",
			} {
				if !strings.Contains(string(b), metric) {
					t.Errorf("/metrics missing %s", metric)
				}
			}
		}
		r2.Body.Close()
	}

	s.adm.shedding.Store(false)
	resp2 := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny"})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovered server: status = %d, want 200", resp2.StatusCode)
	}
}

// TestDeadlineHeader pins the budget derivation: header over default,
// server max clamping both, and malformed headers rejected before any
// work happens.
func TestDeadlineHeader(t *testing.T) {
	s := newServer(1)
	s.defaultDeadline = 2 * time.Second
	s.maxDeadline = 5 * time.Second
	var got time.Duration
	h := s.withDeadline(func(w http.ResponseWriter, r *http.Request) {
		got = 0
		if dl, ok := r.Context().Deadline(); ok {
			got = time.Until(dl)
		}
	})
	run := func(header string) int {
		req := httptest.NewRequest(http.MethodPost, "/query", nil)
		if header != "" {
			req.Header.Set("X-Deadline-Ms", header)
		}
		rw := httptest.NewRecorder()
		h(rw, req)
		return rw.Code
	}
	near := func(want time.Duration) bool {
		return got > want-500*time.Millisecond && got <= want
	}
	if code := run(""); code != http.StatusOK || !near(2*time.Second) {
		t.Fatalf("default: code=%d budget=%v, want ~2s", code, got)
	}
	if code := run("4000"); code != http.StatusOK || !near(4*time.Second) {
		t.Fatalf("header: code=%d budget=%v, want ~4s", code, got)
	}
	if code := run("60000"); code != http.StatusOK || !near(5*time.Second) {
		t.Fatalf("clamped: code=%d budget=%v, want ~5s (server max)", code, got)
	}
	for _, bad := range []string{"0", "-5", "soon", "1.5"} {
		if code := run(bad); code != http.StatusBadRequest {
			t.Fatalf("X-Deadline-Ms=%q: code=%d, want 400", bad, code)
		}
	}
	// No default, no max, no header: the context keeps no deadline.
	s.defaultDeadline, s.maxDeadline = 0, 0
	if code := run(""); code != http.StatusOK || got != 0 {
		t.Fatalf("unbounded: code=%d budget=%v, want none", code, got)
	}
}

// TestQueryDeadline504: a request whose budget is already spent when the
// handler runs must answer 504 with the deadline counter bumped — and the
// same query must still succeed afterwards (cancellation left no state).
func TestQueryDeadline504(t *testing.T) {
	s := newServer(2)
	s.defaultDeadline = time.Nanosecond // expired on arrival, deterministically
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "pr", Scale: "tiny"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", resp.StatusCode, body)
	}
	var e map[string]any
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("504 body not a JSON error: %q", body)
	}
	if s.deadlineHits.Value() == 0 {
		t.Fatal("deadline counter not bumped")
	}

	s.defaultDeadline = 0
	resp2 := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "pr", Scale: "tiny"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up query status = %d, want 200", resp2.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil || out.Iterations == 0 {
		t.Fatalf("follow-up query implausible: %+v (err %v)", out, err)
	}
}

// TestUpdateDeadline504: an expired budget refuses the batch before
// anything is applied — the version must not move.
func TestUpdateDeadline504(t *testing.T) {
	s := newServer(1)
	s.defaultDeadline = time.Nanosecond
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp := post(t, ts.URL+"/update", map[string]any{
		"dataset": "UU", "scale": "tiny",
		"edges": []map[string]any{{"src": 0, "dst": 1, "weight": 3}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if ver := s.runner.GraphVersion("UU", 0); ver != 0 {
		t.Fatalf("expired update advanced the version to %d", ver)
	}
}
