package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

func TestUpdateEndpoint(t *testing.T) {
	s, ts := testServer(t)
	resp := post(t, ts.URL+"/update", json.RawMessage(
		`{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":1,"weight":3},{"src":1,"dst":2}]}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 1 || out.Applied != 2 {
		t.Fatalf("update response = %+v, want version 1, 2 edges", out)
	}
	g, err := s.runner.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalEdges != g.E()+2 {
		t.Fatalf("total edges = %d, want base %d + 2", out.TotalEdges, g.E())
	}

	// A query now reports the new version and the updated edge count.
	qresp := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny"})
	defer qresp.Body.Close()
	var q queryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Version != 1 || q.Edges != out.TotalEdges {
		t.Fatalf("post-update query = %+v, want version 1 with %d edges", q, out.TotalEdges)
	}
	if q.Mode == "" {
		t.Fatal("query response missing serve mode")
	}
}

// TestKCoreRepairedOverHTTP: kcore declares support-growth repair, so once a
// full run has seeded its state every later version is served "incremental"
// — with a traced "repair" span counting the vertices that joined — and the
// members the server ranks are the reference's on the updated graph.
func TestKCoreRepairedOverHTTP(t *testing.T) {
	s, ts := testServer(t)
	base, err := s.runner.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	edges := base.Edges()
	// members lists the reference's k-core on the current edges in vertex
	// order — the order the server ranks equal scores in.
	members := func() (in []uint32, firstOut uint32) {
		ref := algorithms.RunReference(graph.FromEdges(base.Name, base.V, slices.Clone(edges)), algorithms.KCore{}, k, engine.DefaultMaxIters)
		firstOut = base.V
		for v, p := range ref.Prop {
			if p&1 == 1 {
				in = append(in, uint32(v))
			} else if firstOut == base.V {
				firstOut = uint32(v)
			}
		}
		return in, firstOut
	}
	for version, wantMode := range []string{1: "full", 2: "incremental", 3: "incremental"} {
		if version == 0 {
			continue
		}
		// k self-loops bring a non-member in, whatever else it lacks.
		_, v := members()
		if v == base.V {
			t.Fatal("every vertex is a member: nothing can join")
		}
		batch := []stream.EdgeUpdate{{Src: v, Dst: v, Weight: 1}, {Src: v, Dst: v, Weight: 2}, {Src: v, Dst: v, Weight: 3}}
		post(t, ts.URL+"/update", json.RawMessage(
			`{"dataset":"SW","scale":"tiny","edges":`+string(stream.EncodeBatch(batch))+`}`)).Body.Close()
		for _, e := range batch {
			edges = append(edges, graph.Edge(e))
		}
		src := int64(k)
		resp := post(t, ts.URL+"/query?trace=1", queryRequest{Dataset: "SW", Kernel: "kcore", Scale: "tiny", Src: &src, TopK: 1000})
		var q queryResponse
		err := json.NewDecoder(resp.Body).Decode(&q)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("version %d: status %d, err %v", version, resp.StatusCode, err)
		}
		if q.Version != uint64(version) || q.Mode != wantMode {
			t.Fatalf("version %d: served version %d mode %q, want %q", version, q.Version, q.Mode, wantMode)
		}
		in, _ := members()
		if !slices.Contains(in, v) {
			t.Fatalf("version %d: vertex %d did not join the reference's core", version, v)
		}
		in = in[:min(len(in), 1000)]
		if len(q.Top) != len(in) {
			t.Fatalf("version %d (%s): %d members ranked, reference %d", version, q.Mode, len(q.Top), len(in))
		}
		for i, vs := range q.Top {
			if vs.Vertex != in[i] {
				t.Fatalf("version %d (%s): top[%d] = vertex %d, reference member %d", version, q.Mode, i, vs.Vertex, in[i])
			}
		}
		if wantMode == "incremental" {
			i := slices.IndexFunc(q.Trace.Spans, func(sp obs.Span) bool { return sp.Name == "repair" })
			if i < 0 || len(q.Trace.Spans) != 1 {
				t.Fatalf("version %d: spans %+v, want exactly one repair span", version, q.Trace.Spans)
			}
			attrs := q.Trace.Spans[i].Attrs
			if attrs["candidates"] == nil || attrs["peeled"] == nil || attrs["joined"].(float64) < 1 {
				t.Fatalf("version %d: repair span %v, want candidates/peeled and joined ≥ 1", version, attrs)
			}
		}
	}
}

// TestUpdateBadRequests covers the malformed-body error paths of
// POST /update: every one must be a 400 and leave the graph untouched.
func TestUpdateBadRequests(t *testing.T) {
	s, ts := testServer(t)
	bad := map[string]string{
		"not json":        `{`,
		"missing dataset": `{"edges":[{"src":0,"dst":1}]}`,
		"unknown dataset": `{"dataset":"NOPE","edges":[{"src":0,"dst":1}]}`,
		"bad scale":       `{"dataset":"UU","scale":"galactic","edges":[{"src":0,"dst":1}]}`,
		"missing edges":   `{"dataset":"UU","scale":"tiny"}`,
		"empty edges":     `{"dataset":"UU","scale":"tiny","edges":[]}`,
		"edges not array": `{"dataset":"UU","scale":"tiny","edges":{"src":0}}`,
		"missing dst":     `{"dataset":"UU","scale":"tiny","edges":[{"src":0}]}`,
		"negative src":    `{"dataset":"UU","scale":"tiny","edges":[{"src":-1,"dst":1}]}`,
		"zero weight":     `{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":1,"weight":0}]}`,
		"weight 256":      `{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":1,"weight":256}]}`,
		"unknown field":   `{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":1,"wieght":2}]}`,
		"vertex oob":      `{"dataset":"UU","scale":"tiny","edges":[{"src":0,"dst":99999999}]}`,
	}
	for name, body := range bad {
		resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if v := s.runner.GraphVersion("UU", graph.ScaleTiny); v != 0 {
		t.Fatalf("rejected updates moved the version to %d", v)
	}
}

// TestQueryVersionPin: a query pinned to a stale version must get 409 with
// the current version, not different-state data.
func TestQueryVersionPin(t *testing.T) {
	_, ts := testServer(t)
	pin := func(v uint64) int {
		t.Helper()
		req := queryRequest{Dataset: "SW", Kernel: "cc", Scale: "tiny", Version: &v}
		resp := post(t, ts.URL+"/query", req)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := pin(0); code != http.StatusOK {
		t.Fatalf("pin to current version: status %d", code)
	}
	if code := pin(7); code != http.StatusConflict {
		t.Fatalf("pin to future version: status %d, want 409", code)
	}
	post(t, ts.URL+"/update", json.RawMessage(
		`{"dataset":"SW","scale":"tiny","edges":[{"src":0,"dst":1}]}`)).Body.Close()
	if code := pin(0); code != http.StatusConflict {
		t.Fatalf("pin to superseded version: status %d, want 409", code)
	}
	if code := pin(1); code != http.StatusOK {
		t.Fatalf("pin to new version: status %d", code)
	}
}

// TestUpdateInvalidatesStats pins the cache-stat contract around
// invalidation: a cached query entry is evicted by the update (counted in
// query_invalidated), the next identical query is a miss at the new
// version, and repeats of it hit again.
func TestUpdateInvalidatesStats(t *testing.T) {
	s, ts := testServer(t)
	query := func() queryResponse {
		t.Helper()
		resp := post(t, ts.URL+"/query", queryRequest{Dataset: "PP", Kernel: "sssp", Scale: "tiny"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var out queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := query()
	second := query()
	if st := s.runner.QueryStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("pre-update stats = %+v, want 1 miss / 1 hit", st)
	}
	if first.Key != second.Key || second.Mode != "cached" {
		t.Fatalf("repeat not served from cache: %+v vs %+v", first, second)
	}

	post(t, ts.URL+"/update", json.RawMessage(
		`{"dataset":"PP","scale":"tiny","edges":[{"src":2,"dst":3,"weight":5}]}`)).Body.Close()
	st := s.runner.QueryStats()
	if st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}

	third := query()
	if third.Version != 1 || third.Key == first.Key || third.Mode == "cached" {
		t.Fatalf("post-update query served stale state: %+v (pre-update key %s)", third, first.Key)
	}
	if after := s.runner.QueryStats(); after.Misses != st.Misses+1 {
		t.Fatalf("post-update query not a miss: %+v -> %+v", st, after)
	}
	if fourth := query(); fourth.Mode != "cached" || fourth.Key != third.Key {
		t.Fatalf("repeat at version 1 not cached: %+v", fourth)
	}
}

// TestUpdateRacingQuery hammers /update and /query on one dataset
// concurrently (run under -race in CI); every response must be internally
// consistent and the final state must equal the sum of applied batches.
func TestUpdateRacingQuery(t *testing.T) {
	s, ts := testServer(t)
	base, err := s.runner.Graph("WS26", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const (
		updaters = 3
		rounds   = 8
	)
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp := post(t, ts.URL+"/update", json.RawMessage(
					`{"dataset":"WS26","scale":"tiny","edges":[{"src":1,"dst":2},{"src":3,"dst":4}]}`))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("update status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(kernel string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp := post(t, ts.URL+"/query",
					queryRequest{Dataset: "WS26", Kernel: kernel, Scale: "tiny"})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					resp.Body.Close()
					continue
				}
				var out queryResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if out.Version > updaters*rounds {
					t.Errorf("impossible version %d", out.Version)
				}
			}
		}([]string{"bfs", "cc", "sswp"}[q])
	}
	wg.Wait()
	if v := s.runner.GraphVersion("WS26", graph.ScaleTiny); v != updaters*rounds {
		t.Fatalf("final version = %d, want %d", v, updaters*rounds)
	}
	g, err := s.runner.CurrentGraph("WS26", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if want := base.E() + 2*updaters*rounds; g.E() != want {
		t.Fatalf("final edges = %d, want %d", g.E(), want)
	}
}
