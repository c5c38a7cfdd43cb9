package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
)

// queryTop posts one /query and returns the decoded reply.
func queryTop(t *testing.T, url string, req queryRequest) queryResponse {
	t.Helper()
	resp := post(t, url, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryRankMemo drives the ranking memo over the wire: miss, hits with a
// shrinking and a growing k, and a traced request on the warmed key. Every
// top must be engine.TopK of the result vector — what the handler computed
// per request before the ranking moved into the cache entry — and the trace
// must say how the ranking was produced.
func TestQueryRankMemo(t *testing.T) {
	s, ts := testServer(t)
	for _, kernel := range []string{"bfs", "cc", "kcore"} {
		res, _, err := s.runner.RunQueryInfo(context.Background(),
			runner.Query{Dataset: "SW", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{10, 3, 10, 200, 1} {
			want, err := engine.TopK(kernel, res.Prop, k)
			if err != nil {
				t.Fatal(err)
			}
			out := queryTop(t, ts.URL+"/query", queryRequest{Dataset: "SW", Kernel: kernel, Scale: "tiny", TopK: k})
			if out.Mode != "cached" || !reflect.DeepEqual(out.Top, want) {
				t.Fatalf("%s k=%d (mode %s): top differs from engine.TopK:\n got %v\nwant %v", kernel, k, out.Mode, out.Top, want)
			}
			if out.Trace != nil {
				t.Fatalf("%s: untraced reply carries a trace", kernel)
			}
		}
		// Traced: bypasses the cache, so it ranks its own result — correctly,
		// and visibly so.
		want, _ := engine.TopK(kernel, res.Prop, 7)
		out := queryTop(t, ts.URL+"/query?trace=1", queryRequest{Dataset: "SW", Kernel: kernel, Scale: "tiny", TopK: 7})
		if !reflect.DeepEqual(out.Top, want) {
			t.Fatalf("%s traced: top differs from engine.TopK", kernel)
		}
		if out.Trace == nil {
			t.Fatalf("%s: traced reply has no trace", kernel)
		}
		rank := out.Trace.Rank
		if rank.Name != "rank" || rank.Attrs["how"] != runner.RankComputed || rank.Attrs["k"] != 7.0 {
			t.Errorf("%s: trace.rank = %+v, want a rank span with how=computed, k=7", kernel, rank)
		}
		if rank.DurNS <= 0 || rank.StartNS < 0 {
			t.Errorf("%s: trace.rank timing start=%d dur=%d", kernel, rank.StartNS, rank.DurNS)
		}
		for _, sp := range out.Trace.Spans {
			if sp.Name == "rank" {
				t.Errorf("%s: the rank span leaked into the execution's span list", kernel)
			}
		}
	}
}

// TestRankMetricsAndStats checks the ranking layer's two views agree: the
// piccolo_query_rank_* series on /metrics and the rank object in /stats count
// the same calls, one computed per distinct result and a memo for each hit
// after it.
func TestRankMetricsAndStats(t *testing.T) {
	_, ts := testServer(t)
	const hits = 5
	for _, kernel := range []string{"bfs", "pr"} {
		for i := 0; i <= hits; i++ {
			queryTop(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: kernel, Scale: "tiny"})
		}
	}
	vals := scrapeMetrics(t, ts.URL)
	computed := vals[`piccolo_query_rank_total{how="computed"}`]
	memo := vals[`piccolo_query_rank_total{how="memo"}`]
	if computed != 2 || memo != 2*hits {
		t.Errorf("rank totals: computed=%v memo=%v, want 2 and %d", computed, memo, 2*hits)
	}
	if n := vals[`piccolo_query_rank_seconds_count`]; n != computed+memo {
		t.Errorf("piccolo_query_rank_seconds_count = %v, want %v", n, computed+memo)
	}
	if sum := vals[`piccolo_query_rank_seconds_sum`]; sum <= 0 || sum > 60 {
		t.Errorf("piccolo_query_rank_seconds_sum = %v seconds, implausible", sum)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Rank runner.RankStats `json:"rank"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if float64(st.Rank.Computed) != computed || float64(st.Rank.Memo) != memo || float64(st.Rank.Count) != computed+memo {
		t.Errorf("/stats rank = %+v, /metrics computed=%v memo=%v", st.Rank, computed, memo)
	}
	if st.Rank.MaxMS <= 0 || st.Rank.P50MS > st.Rank.MaxMS {
		t.Errorf("/stats rank latency summary implausible: %+v", st.Rank)
	}
}

// TestRequestCounterPerCode pins the middleware's per-code counter handles to
// the series the registry exports: one {path,code} series per code actually
// answered, created by its first response, counting every one after.
func TestRequestCounterPerCode(t *testing.T) {
	_, ts := testServer(t)
	before := scrapeMetrics(t, ts.URL)
	if _, ok := before[`piccolo_http_requests_total{code="400",path="/query"}`]; ok {
		t.Fatal("a 400 series exists before any 400 was answered")
	}
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "cc", Scale: "tiny"}).Body.Close()
		post(t, ts.URL+"/query", queryRequest{Dataset: "NOPE"}).Body.Close()
	}
	after := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`piccolo_http_requests_total{code="200",path="/query"}`:   3,
		`piccolo_http_requests_total{code="400",path="/query"}`:   3,
		`piccolo_http_requests_total{code="200",path="/metrics"}`: 1, // the first scrape; the second is counted after it is written
	} {
		if after[series] != want {
			t.Errorf("%s = %v, want %v", series, after[series], want)
		}
	}
}

// BenchmarkQueryHit measures one /query cache hit through the real handler
// chain (instrument → deadline → handleQuery → JSON) on an in-process server:
// 64 warmed keys on a medium proxy, cycled. ns/op is the server-side cost of
// a hit, transport excluded; allocs/op is what the hit path allocates.
func BenchmarkQueryHit(b *testing.B) {
	s := newServer(2)
	h := s.routes()
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"dataset":"TW","kernel":"bfs","scale":"medium","src":%d}`, 1+i))
	}
	serve := func(body []byte) {
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	for _, body := range bodies {
		serve(body) // miss: runs the engine and ranks once
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
