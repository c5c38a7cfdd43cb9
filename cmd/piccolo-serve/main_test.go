package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(2)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func tinyRequest() jobRequest {
	return jobRequest{Dataset: "UU", System: "piccolo", Kernel: "bfs", Scale: "tiny", MaxIters: 2}
}

func TestRunEndpoint(t *testing.T) {
	s, ts := testServer(t)
	resp := post(t, ts.URL+"/run", tinyRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Cycles == 0 || out.System != "Piccolo" || out.Key == "" {
		t.Errorf("incomplete response: %+v", out)
	}
	if out.EnergyPJ.Total <= 0 {
		t.Error("no energy estimate")
	}

	// The identical request again must be a cache hit, not a new simulation.
	before := s.runner.Stats()
	resp2 := post(t, ts.URL+"/run", tinyRequest())
	var out2 jobResponse
	json.NewDecoder(resp2.Body).Decode(&out2)
	resp2.Body.Close()
	if out2.Cycles != out.Cycles {
		t.Errorf("repeat run diverged: %d != %d", out2.Cycles, out.Cycles)
	}
	if after := s.runner.Stats(); after.Misses != before.Misses {
		t.Errorf("repeat request executed %d new simulations", after.Misses-before.Misses)
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := testServer(t)
	a := tinyRequest()
	b := tinyRequest()
	b.System = "nmp"
	body := map[string]any{"jobs": []jobRequest{a, b, a}} // a duplicated
	resp := post(t, ts.URL+"/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Results []jobResponse `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3 (submission order)", len(out.Results))
	}
	if out.Results[0].System != "Piccolo" || out.Results[1].System != "NMP" {
		t.Errorf("order not preserved: %s, %s", out.Results[0].System, out.Results[1].System)
	}
	if out.Results[0].Key != out.Results[2].Key || out.Results[0].Cycles != out.Results[2].Cycles {
		t.Error("duplicate jobs disagree")
	}
	if st := s.runner.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (duplicate deduplicated)", st.Misses)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	bad := []struct {
		path string
		body any
	}{
		{"/run", jobRequest{Dataset: "NOPE", Kernel: "bfs", Scale: "tiny"}},
		{"/run", jobRequest{Dataset: "UU", System: "warp-drive", Scale: "tiny"}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "bfs", Scale: "galactic"}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "dijkstra", Scale: "tiny"}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny", CacheDesign: "bogus"}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny", StreamDepth: -2}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny", TileScale: -1}},
		{"/run", jobRequest{Dataset: "UU", Kernel: "bfs", Scale: "tiny", Memory: "SRAM"}},
		{"/run", jobRequest{Kernel: "bfs", Scale: "tiny"}}, // missing dataset
		{"/sweep", map[string]any{"jobs": []jobRequest{}}},
	}
	for _, c := range bad {
		resp := post(t, ts.URL+c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %+v: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(health.Kernels) != len(algorithms.Names()) {
		t.Errorf("healthz lists %d kernels, registry has %d", len(health.Kernels), len(algorithms.Names()))
	}
	for i, c := range health.Kernels {
		if c.Name != algorithms.Names()[i] || c.Version < 1 || c.Repair == "" || c.Source == "" {
			t.Errorf("healthz kernel capability %d implausible: %+v", i, c)
		}
		// The wire spelling of every strategy a client can be told about.
		if want := algorithms.MustDescriptor(c.Name).Repair.String(); c.Repair != want {
			t.Errorf("healthz kernel %s: repair %q, want %q", c.Name, c.Repair, want)
		}
	}
	if i := slices.IndexFunc(health.Kernels, func(c algorithms.Capability) bool { return c.Name == "kcore" }); i < 0 || health.Kernels[i].Repair != "support-growth" {
		t.Errorf("healthz does not list kcore with repair \"support-growth\": %+v", health.Kernels)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, k := range []string{"workers", "kernels", "cache_hits", "cache_misses", "cache_hit_rate", "stream_lock_wait_ms", "stream_lock_waits"} {
		if _, ok := st[k]; !ok {
			t.Errorf("stats missing %q: %v", k, st)
		}
	}
	if ks, ok := st["kernels"].([]any); !ok || len(ks) != len(algorithms.Names()) {
		t.Errorf("stats kernels = %v, want %d capability entries", st["kernels"], len(algorithms.Names()))
	}
}

// TestUnknownKernelShape: every endpoint that takes a kernel name answers
// an unknown one with 400 and the one normalized JSON shape
// {"error", "kernel", "supported"} (satellite: clients should not have to
// parse messages to learn what the server runs).
func TestUnknownKernelShape(t *testing.T) {
	_, ts := testServer(t)
	for name, c := range map[string]struct {
		path string
		body any
	}{
		"run":   {"/run", jobRequest{Dataset: "UU", Kernel: "dijkstra", Scale: "tiny"}},
		"sweep": {"/sweep", map[string]any{"jobs": []jobRequest{{Dataset: "UU", Kernel: "dijkstra", Scale: "tiny"}}}},
		"query": {"/query", queryRequest{Dataset: "SW", Kernel: "dijkstra", Scale: "tiny"}},
	} {
		resp := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		var body struct {
			Error     string   `json:"error"`
			Kernel    string   `json:"kernel"`
			Supported []string `json:"supported"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decoding error body: %v", name, err)
		}
		resp.Body.Close()
		if body.Error == "" || body.Kernel != "dijkstra" {
			t.Errorf("%s: error body = %+v, want the rejected kernel named", name, body)
		}
		if len(body.Supported) != len(algorithms.Names()) {
			t.Errorf("%s: supported = %v, want the full registry", name, body.Supported)
		}
	}
}

// TestQueryNewKernels drives label propagation, k-core and personalized
// PageRank through POST /query — the kernels that landed via the
// capability registry, with no serve-layer special cases — and checks each
// result bit-for-bit against the reference on the same graph.
func TestQueryNewKernels(t *testing.T) {
	s, ts := testServer(t)
	g, err := s.runner.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"lp", "kcore", "ppr"} {
		resp := post(t, ts.URL+"/query", queryRequest{Dataset: "SW", Kernel: kernel, Scale: "tiny", TopK: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", kernel, resp.StatusCode)
		}
		var out queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Kernel != kernel || out.Vertices != g.V || out.Iterations == 0 {
			t.Fatalf("%s: implausible response: %+v", kernel, out)
		}
		if len(out.Top) == 0 || len(out.Top) > 4 {
			t.Fatalf("%s: top-k size = %d, want 1..4", kernel, len(out.Top))
		}

		k, err := algorithms.New(kernel)
		if err != nil {
			t.Fatal(err)
		}
		d := k.Descriptor()
		src := algorithms.ResolveSource(d, -1, g.V, func() uint32 {
			hd, _ := graph.HighestDegreeVertex(g)
			return hd
		})
		ref := algorithms.RunReference(g, k, src, algorithms.EffectiveMaxIters(d, 0, engine.DefaultMaxIters))
		res, _, err := s.runner.RunQueryInfo(context.Background(), runner.Query{Dataset: "SW", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != ref.Iterations {
			t.Fatalf("%s: query iterations = %d, reference %d", kernel, res.Iterations, ref.Iterations)
		}
		for v := range ref.Prop {
			if res.Prop[v] != ref.Prop[v] {
				t.Fatalf("%s: query prop[%d] = %#x, reference %#x", kernel, v, res.Prop[v], ref.Prop[v])
			}
		}
	}
}

// TestRunConcurrentDuplicates: identical concurrent POST /run requests
// execute one simulation — the runner's single-flight cache collapses them
// with no batching in front of it — and every reply carries the same key.
func TestRunConcurrentDuplicates(t *testing.T) {
	s, ts := testServer(t)
	bodies := make([]jobResponse, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(tinyRequest())
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&bodies[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, out := range bodies {
		if out.Key == "" || out.Key != bodies[0].Key || out.Cycles != bodies[0].Cycles {
			t.Errorf("request %d: key %q cycles %d, want %q / %d", i, out.Key, out.Cycles, bodies[0].Key, bodies[0].Cycles)
		}
	}
	if st := s.runner.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// parkedCtx parks whoever polls Err() — an engine run at its first superstep
// boundary, holding its worker slot — until release is closed.
type parkedCtx struct {
	context.Context
	once             sync.Once
	reached, release chan struct{}
}

func (c *parkedCtx) Err() error {
	c.once.Do(func() { close(c.reached) })
	<-c.release
	return nil
}

// TestRunWaiterDeadline504: a /run whose deadline expires while it waits on an
// identical in-flight job answers 504 at its deadline, and the leader's
// simulation still completes into the shared cache.
func TestRunWaiterDeadline504(t *testing.T) {
	s := newServer(1)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	// A query parked inside the engine holds the pool's only slot, so the
	// leader below stays in flight, queued for it.
	gate := &parkedCtx{Context: context.Background(), reached: make(chan struct{}), release: make(chan struct{})}
	parked := make(chan error, 1)
	go func() {
		_, _, err := s.runner.RunQueryInfo(gate, runner.Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 1})
		parked <- err
	}()
	<-gate.reached
	leader := make(chan int, 1)
	go func() {
		buf, _ := json.Marshal(tinyRequest())
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			leader <- 0
			return
		}
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	for s.runner.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}

	buf, _ := json.Marshal(tinyRequest())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run", bytes.NewReader(buf))
	req.Header.Set("X-Deadline-Ms", "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("waiter: status %d, want 504", resp.StatusCode)
	}
	if st := s.runner.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v: the waiter did not wait on the in-flight job", st)
	}

	close(gate.release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader: status %d", code)
	}
	post(t, ts.URL+"/run", tinyRequest()).Body.Close()
	if st := s.runner.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v: the leader's result was not cached", st)
	}
}

// TestSrcCanonicalized: out-of-range and negative source vertices all
// select the default source in core.Run, so they must collapse onto one
// cache entry instead of minting client-controlled distinct keys.
func TestSrcCanonicalized(t *testing.T) {
	s, ts := testServer(t)
	run := func(src string) {
		resp := post(t, ts.URL+"/run", json.RawMessage(
			`{"dataset":"UU","kernel":"bfs","scale":"tiny","max_iters":2,"src":`+src+`}`))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("src=%s: status %d", src, resp.StatusCode)
		}
	}
	run("-1")
	run("-7")         // any negative = default
	run("1000000000") // beyond V = default
	if st := s.runner.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1: equivalent sources not canonicalized", st.Misses)
	}
}

func TestJobRequestMemoryOverride(t *testing.T) {
	q := tinyRequest()
	q.Memory = "HBM-enh"
	q.Channels = 2
	job, err := q.job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Config.Mem.Channels != 2 || !job.Config.Mem.FIMLongBurst {
		t.Errorf("memory override not applied: %+v", job.Config.Mem)
	}
	// Default memory stays the zero value so core.Run picks its default.
	plain, err := tinyRequest().job()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config.Mem.Name != "" {
		t.Errorf("default memory not zero: %q", plain.Config.Mem.Name)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, ts := testServer(t)
	req := queryRequest{Dataset: "SW", Kernel: "bfs", Scale: "tiny", TopK: 5}
	resp := post(t, ts.URL+"/query", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Kernel != "bfs" || out.Vertices == 0 || out.Iterations == 0 || out.Key == "" {
		t.Fatalf("implausible query response: %+v", out)
	}
	if len(out.Top) == 0 || len(out.Top) > 5 {
		t.Fatalf("top-k size = %d, want 1..5", len(out.Top))
	}
	if out.Top[0].Score != 0 {
		t.Fatalf("closest BFS vertex should be the source at distance 0, got %+v", out.Top[0])
	}

	// Exact repeat and a different negative src spelling: both cache hits.
	post(t, ts.URL+"/query", req).Body.Close()
	src := int64(-5)
	req2 := req
	req2.Src = &src
	post(t, ts.URL+"/query", req2).Body.Close()
	if st := s.runner.QueryStats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("query stats = %+v, want 1 miss / 2 hits", st)
	}

	// The functional result must be the reference, bit for bit.
	g, err := s.runner.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.runner.RunQueryInfo(context.Background(), runner.Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1})
	if err != nil {
		t.Fatal(err)
	}
	refProp, refIters := referenceBFS(t, g)
	if res.Iterations != refIters {
		t.Fatalf("query iterations = %d, reference %d", res.Iterations, refIters)
	}
	for v := range refProp {
		if res.Prop[v] != refProp[v] {
			t.Fatalf("query prop[%d] = %#x, reference %#x", v, res.Prop[v], refProp[v])
		}
	}
}

func referenceBFS(t *testing.T, g *graph.CSR) ([]uint64, int) {
	t.Helper()
	k, err := algorithms.New("bfs")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, engine.DefaultMaxIters)
	return ref.Prop, ref.Iterations
}

func TestQueryBadRequests(t *testing.T) {
	_, ts := testServer(t)
	for name, req := range map[string]queryRequest{
		"missing dataset": {Kernel: "bfs"},
		"bad dataset":     {Dataset: "NOPE", Kernel: "bfs"},
		"bad kernel":      {Dataset: "SW", Kernel: "dijkstra"},
		"bad scale":       {Dataset: "SW", Kernel: "bfs", Scale: "huge"},
		"negative iters":  {Dataset: "SW", Kernel: "bfs", MaxIters: -1},
		"negative k":      {Dataset: "SW", Kernel: "bfs", TopK: -2},
	} {
		resp := post(t, ts.URL+"/query", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestQueryCCComponents(t *testing.T) {
	_, ts := testServer(t)
	resp := post(t, ts.URL+"/query", queryRequest{Dataset: "UU", Kernel: "cc", Scale: "tiny", TopK: 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Top) == 0 {
		t.Fatal("cc query returned no components")
	}
	for i := 1; i < len(out.Top); i++ {
		if out.Top[i].Score > out.Top[i-1].Score {
			t.Fatalf("components not sorted by size: %+v", out.Top)
		}
	}
}
