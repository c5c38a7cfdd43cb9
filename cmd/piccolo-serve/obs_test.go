package main

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"piccolo/internal/loadgen"
	"piccolo/internal/obs"
)

func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	vals, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return vals
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// Drive one of everything so the interesting series exist.
	post(t, ts.URL+"/run", tinyRequest()).Body.Close()
	post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "pr", Scale: "tiny"}).Body.Close()
	post(t, ts.URL+"/update", json.RawMessage(
		`{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":1,"weight":3}]}`)).Body.Close()

	vals := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`piccolo_run_total{outcome="exec"}`,
		`piccolo_query_total{mode="engine"}`,
		`piccolo_update_total{outcome="ok"}`,
		`piccolo_stream_updates_total`,
		`piccolo_stream_edges_applied_total`,
		`piccolo_http_requests_total{code="200",path="/query"}`,
		`piccolo_http_request_seconds_count{path="/run"}`,
		`piccolo_workers`,
		// Width by demand: the pr query above queued for its slot once (a
		// near-zero wait, still one observation) and ran its supersteps at
		// some width between 1 and the pool size.
		`piccolo_query_queue_wait_seconds_count`,
	} {
		if v, ok := vals[want]; !ok || v < 1 {
			t.Errorf("metric %s = %v (present=%v), want >= 1", want, v, ok)
		}
	}
	if v := vals[`piccolo_graphs_loaded`]; v < 1 {
		t.Errorf("piccolo_graphs_loaded = %v, want >= 1", v)
	}
	if w1, w2 := vals[`piccolo_engine_run_width{width="1"}`], vals[`piccolo_engine_run_width{width="2"}`]; w1+w2 < 1 {
		t.Errorf("piccolo_engine_run_width: %v supersteps at width 1, %v at width 2, want some", w1, w2)
	}
	if v, ok := vals[`piccolo_engine_runs_inflight`]; !ok || v != 0 {
		t.Errorf("piccolo_engine_runs_inflight = %v (present=%v), want 0 on an idle server", v, ok)
	}
	if sum := vals[`piccolo_query_queue_wait_seconds_sum`]; sum > 1 {
		t.Errorf("queue wait on an idle server sums to %v seconds", sum)
	}

	// Histogram invariants: _count equals the +Inf bucket, _sum is in
	// seconds (a tiny-graph query cannot take an hour).
	cnt := vals[`piccolo_query_seconds_count`]
	inf := vals[`piccolo_query_seconds_bucket{le="+Inf"}`]
	if cnt < 1 || cnt != inf {
		t.Errorf("query histogram count %v != +Inf bucket %v", cnt, inf)
	}
	if sum := vals[`piccolo_query_seconds_sum`]; sum <= 0 || sum > 3600 {
		t.Errorf("query histogram sum = %v seconds, implausible", sum)
	}
}

// TestMetricsMonotonic scrapes, drives traffic, scrapes again: every
// *_total counter must be present and non-decreasing.
func TestMetricsMonotonic(t *testing.T) {
	_, ts := testServer(t)
	post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "cc", Scale: "tiny"}).Body.Close()
	before := scrapeMetrics(t, ts.URL)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "cc", Scale: "tiny"}).Body.Close()
	}
	after := scrapeMetrics(t, ts.URL)
	checkMonotonic(t, before, after)
	if after[`piccolo_query_total{mode="cached"}`] < before[`piccolo_query_total{mode="cached"}`]+3 {
		t.Errorf("repeat queries not counted as cached: before=%v after=%v",
			before[`piccolo_query_total{mode="cached"}`], after[`piccolo_query_total{mode="cached"}`])
	}
}

func checkMonotonic(t *testing.T, before, after map[string]float64) {
	t.Helper()
	for k, v := range before {
		if !strings.Contains(k, "_total") {
			continue
		}
		av, ok := after[k]
		if !ok {
			t.Errorf("counter %s disappeared between scrapes", k)
		} else if av < v {
			t.Errorf("counter %s went backwards: %v -> %v", k, v, av)
		}
	}
}

func TestQueryTrace(t *testing.T) {
	_, ts := testServer(t)
	resp := post(t, ts.URL+"/query?trace=1", queryRequest{Dataset: "SW", Kernel: "pr", Scale: "tiny", TopK: 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || len(out.Trace.Spans) == 0 {
		t.Fatal("?trace=1 returned no spans")
	}
	if got := len(out.Trace.Spans); got != out.Iterations {
		t.Errorf("span count = %d, want one per superstep (%d)", got, out.Iterations)
	}
	const slackNS = float64(2 * time.Millisecond)
	var phaseTotal, durTotal float64
	for i, sp := range out.Trace.Spans {
		if sp.Name != "superstep" {
			t.Errorf("span %d name = %q, want superstep", i, sp.Name)
		}
		if sp.Attrs["mode"] == nil || sp.Attrs["iter"] == nil || sp.Attrs["frontier"] == nil || sp.Attrs["shards"] == nil {
			t.Errorf("span %d missing core attrs: %v", i, sp.Attrs)
		}
		if st, ok := sp.Attrs["strategy"].(string); !ok || (st != "push" && st != "pull") {
			t.Errorf("span %d strategy = %v, want push or pull", i, sp.Attrs["strategy"])
		}
		// Acceptance: the per-phase durations account for the span — they
		// sum to approximately (and never meaningfully above) dur_ns.
		var phases float64
		for _, k := range []string{"pull_ns", "stream_ns", "scatter_ns", "gather_ns", "apply_ns"} {
			if v, ok := sp.Attrs[k].(float64); ok {
				phases += v
			}
		}
		if phases == 0 {
			t.Errorf("span %d has no phase durations: %v", i, sp.Attrs)
		}
		if phases > float64(sp.DurNS)+slackNS {
			t.Errorf("span %d phases (%v ns) exceed span duration (%d ns)", i, phases, sp.DurNS)
		}
		phaseTotal += phases
		durTotal += float64(sp.DurNS)
		if sp.StartNS < 0 || sp.DurNS < 0 {
			t.Errorf("span %d has negative timing: start=%d dur=%d", i, sp.StartNS, sp.DurNS)
		}
	}
	if durTotal > 0 && phaseTotal < 0.3*durTotal {
		t.Errorf("phases cover %.0f%% of superstep time, want the bulk of it", 100*phaseTotal/durTotal)
	}
	if out.Trace.TotalNS <= 0 {
		t.Errorf("trace total_ns = %d", out.Trace.TotalNS)
	}

	// An untraced query must not carry a trace; a bad trace value is 400.
	resp2 := post(t, ts.URL+"/query", queryRequest{Dataset: "SW", Kernel: "pr", Scale: "tiny", TopK: 3})
	var out2 queryResponse
	json.NewDecoder(resp2.Body).Decode(&out2)
	resp2.Body.Close()
	if out2.Trace != nil {
		t.Error("untraced query returned a trace")
	}
	resp3 := post(t, ts.URL+"/query?trace=maybe", queryRequest{Dataset: "SW", Kernel: "pr", Scale: "tiny"})
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("trace=maybe status = %d, want 400", resp3.StatusCode)
	}
}

// TestUpdateTrace drives an update then a traced query on the updated
// graph: the dynamic path must return spans too (repair, or index and
// materialize spans and full-run supersteps, depending on what the repair
// planner chose).
func TestUpdateTrace(t *testing.T) {
	_, ts := testServer(t)
	post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny"}).Body.Close()
	post(t, ts.URL+"/update", json.RawMessage(
		`{"dataset":"UU","scale":"tiny","edges":[{"src":1,"dst":2,"weight":1}]}`)).Body.Close()
	resp := post(t, ts.URL+"/query?trace=1", queryRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || len(out.Trace.Spans) == 0 {
		t.Fatal("traced dynamic query returned no spans")
	}
	for i, sp := range out.Trace.Spans {
		if !slices.Contains([]string{"superstep", "repair", "index", "materialize"}, sp.Name) {
			t.Errorf("span %d name = %q, want superstep, repair, index or materialize", i, sp.Name)
		}
	}
}

// TestIndexSpanAndStats drives two versions of full recomputes (pr never
// repairs) through the server: the first traced query reports an index built
// from scratch, the second one carried, and /stats counts one of each.
func TestIndexSpanAndStats(t *testing.T) {
	_, ts := testServer(t)
	for round, want := range []string{"rebuilt", "carried"} {
		post(t, ts.URL+"/update", json.RawMessage(
			`{"dataset":"UU","scale":"tiny","edges":[{"src":1,"dst":2,"weight":1},{"src":3,"dst":3,"weight":7}]}`)).Body.Close()
		resp := post(t, ts.URL+"/query?trace=1", queryRequest{Dataset: "UU", Kernel: "pr", Scale: "tiny"})
		var out queryResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || out.Trace == nil || len(out.Trace.Spans) == 0 {
			t.Fatalf("round %d: no trace (err %v)", round, err)
		}
		i := slices.IndexFunc(out.Trace.Spans, func(sp obs.Span) bool { return sp.Name == "index" })
		if i < 0 || out.Trace.Spans[i].Attrs["how"] != want {
			t.Fatalf("round %d: spans %v, want an index span with how=%s", round, out.Trace.Spans, want)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["index_carried"] != 1.0 || st["index_rebuilt"] != 1.0 {
		t.Errorf("stats index_carried = %v, index_rebuilt = %v; want 1 and 1", st["index_carried"], st["index_rebuilt"])
	}
}

func TestHealthzFields(t *testing.T) {
	_, ts := testServer(t)
	post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "cc", Scale: "tiny"}).Body.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("healthz content-type = %q", ct)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.GoVersion == "" {
		t.Errorf("incomplete healthz: %+v", h)
	}
	if h.Workers < 1 || h.GraphsLoaded < 1 {
		t.Errorf("healthz cache state: workers=%d graphs=%d", h.Workers, h.GraphsLoaded)
	}
}

func TestStatsEndpointSummaries(t *testing.T) {
	_, ts := testServer(t)
	post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "pr", Scale: "tiny"}).Body.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("stats content-type = %q", ct)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	eps, ok := st["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no endpoints block: %v", st)
	}
	q, ok := eps["/query"].(map[string]any)
	if !ok {
		t.Fatalf("no /query endpoint summary: %v", eps)
	}
	if c, _ := q["count"].(float64); c < 1 {
		t.Errorf("/query latency count = %v, want >= 1", q["count"])
	}
	if _, ok := q["p99_ms"]; !ok {
		t.Errorf("/query summary missing p99_ms: %v", q)
	}
	// The per-strategy superstep counters are process-wide, and the PR
	// query above ran at least one dense (pull by default) superstep.
	push, _ := st["supersteps_push"].(float64)
	pull, ok := st["supersteps_pull"].(float64)
	if !ok {
		t.Fatalf("stats missing supersteps_pull: %v", st)
	}
	if push+pull < 1 {
		t.Errorf("supersteps push=%v pull=%v, want at least one superstep recorded", push, pull)
	}
	// Width by demand: every superstep is also counted under its width, the
	// query queued once for its slot, and nothing is running now.
	var widthSteps float64
	widths, _ := st["run_width"].(map[string]any)
	for _, n := range widths {
		f, _ := n.(float64)
		widthSteps += f
	}
	if widthSteps < 1 {
		t.Errorf("stats run_width = %v, want the query's supersteps", st["run_width"])
	}
	if qw, _ := st["queue_wait"].(map[string]any); qw == nil || qw["count"].(float64) < 1 {
		t.Errorf("stats queue_wait = %v, want one observation", st["queue_wait"])
	}
	if n, ok := st["runs_inflight"].(float64); !ok || n != 0 {
		t.Errorf("stats runs_inflight = %v, want 0", st["runs_inflight"])
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := testServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "caller-supplied-42" {
		t.Errorf("request ID not echoed: %q", id)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Request-ID"); id == "" {
		t.Error("no request ID generated")
	}
}

// TestLoadSmoke is the CI smoke gate (run explicitly in the workflow):
// piccolo-load's core drives an in-process serve instance open-loop for
// ~1s of mixed traffic, then the /metrics deltas are checked for
// presence and counter monotonicity.
func TestLoadSmoke(t *testing.T) {
	_, ts := testServer(t)
	before := scrapeMetrics(t, ts.URL)

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:        ts.URL,
		Rate:           50,
		Duration:       time.Second,
		UpdateFraction: 0.2,
		SrcSpread:      16,
		Seed:           42,
		Timeout:        20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 50 || res.Completed != res.Sent {
		t.Errorf("sent=%d completed=%d, want 50/50", res.Sent, res.Completed)
	}
	if res.Errors > 0 {
		t.Errorf("%d request errors: %v", res.Errors, res.StatusCodes)
	}
	if res.Overall == nil || res.Overall.Count != res.Completed {
		t.Errorf("overall histogram count = %v, want %d", res.Overall, res.Completed)
	}
	qn := res.ByKind["query"].Count
	un := res.ByKind["update"].Count
	if qn == 0 || un == 0 || qn+un != res.Completed {
		t.Errorf("kind split query=%d update=%d of %d", qn, un, res.Completed)
	}
	if s := res.Overall.Summary(); s.P50MS <= 0 || s.P999MS < s.P50MS {
		t.Errorf("implausible client-side latency summary: %+v", s)
	}

	after := scrapeMetrics(t, ts.URL)
	checkMonotonic(t, before, after)
	// The server must have seen what the client sent (plus the probe).
	served := after[`piccolo_http_requests_total{code="200",path="/query"}`] +
		after[`piccolo_http_requests_total{code="200",path="/update"}`]
	if served < float64(res.Completed) {
		t.Errorf("server counted %v requests, client completed %d", served, res.Completed)
	}
	if after[`piccolo_stream_updates_total`] < float64(un) {
		t.Errorf("stream updates total = %v, want >= %d", after[`piccolo_stream_updates_total`], un)
	}
}
