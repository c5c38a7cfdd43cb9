package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

// Sizes of the serving workloads. The full sizes are the ones README.md
// argues for; -smoke swaps in graphs small enough for go test -race.
type serveSizes struct {
	scale     graph.Scale // TW proxy scale (medium: 65 536 V / 2.36 M E)
	knScale   int         // stored Kronecker graph: 2^knScale vertices
	knFactor  int         // edges per vertex of the stored graph
	minDegree uint32      // sources are drawn among vertices at least this connected
	coldRate  float64     // serve-cold list length per second of window
}

func sizesFor(o options) serveSizes {
	if o.smoke {
		return serveSizes{scale: graph.ScaleTiny, knScale: 10, knFactor: 8, minDegree: 2, coldRate: 32}
	}
	return serveSizes{scale: graph.ScaleMedium, knScale: 17, knFactor: 16, minDegree: 8, coldRate: 24}
}

const (
	twName = "TW"
	knName = "kn17"
	topK   = 10

	batchRate = 25 // serve-update: /update batches per second
	batchSize = 8  // edges per batch
)

var (
	coldKernels   = []string{"bfs", "sssp", "sswp", "ppr"}
	hotKernels    = []string{"pr", "bfs", "cc", "sssp", "sswp", "lp", "kcore", "ppr"}
	updateKernels = []string{"bfs", "sssp", "cc", "kcore"}
)

// serveRun is the state of one serving workload run.
type serveRun struct {
	o     options
	sz    serveSizes
	name  string
	res   *result
	tmp   string
	srv   *server
	ld    *loader
	rng   *rand.Rand
	tw    *graph.CSR // harness's own copy, for source choice and the oracle
	kn    *graph.CSR
	spans *spanLog

	batches [][]stream.EdgeUpdate // serve-update: every batch sent, in order
}

func runServe(ctx context.Context, name string, o options, res *result) error {
	bin, err := buildServer(o)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return err
	}
	onExit(func() { os.RemoveAll(tmp) }) // SIGINT and failures
	defer os.RemoveAll(tmp)              // every ordinary return, at once
	r := &serveRun{
		o: o, sz: sizesFor(o), name: name, res: res, tmp: tmp,
		rng: rand.New(rand.NewSource(o.seed)), spans: newSpanLog(o.trace),
	}

	// Set-up: everything between "binary exists" and "ready for the first
	// timed request". Reported apart from the window (setup_s).
	setupStart := time.Now()
	plan, err := r.setup(ctx, bin)
	if err != nil {
		return err
	}
	defer r.srv.stop()
	defer r.ld.close()
	res.set("setup_s", time.Since(setupStart).Seconds())

	wctx, cancel := context.WithTimeout(ctx, hardTimeout)
	defer cancel()
	before, err := r.srv.scrape(wctx)
	if err != nil {
		return err
	}
	selfCPU := cpuSeconds(os.Getpid())
	stopRSS := sampleRSS(r.srv.cmd.Process.Pid)
	w := plan(wctx)
	rss := stopRSS()
	selfCPU = cpuSeconds(os.Getpid()) - selfCPU
	after, err := r.srv.scrape(wctx)
	if err != nil {
		return err
	}
	r.account(w, before, after, selfCPU, rss, procStatusMB(r.srv.cmd.Process.Pid, "VmHWM"))
	if err := r.checkAnswers(wctx, w); err != nil {
		return err
	}
	r.srv.stop()
	if o.trace {
		if err := r.layerMetrics(); err != nil {
			return err
		}
		return r.spans.write(filepath.Join(o.outDir, "trace-"+name+".json"), res)
	}
	return nil
}

// window is what a timed window produced. A traced run splits it: the
// first half runs untraced and is what every count and client-side number
// is taken from (the production path); the second half sends each 8th
// query with ?trace=1, which bypasses the result cache, and feeds only the
// span-derived metrics and the tracing overhead.
type window struct {
	wall    time.Duration // of the untraced part
	queries []sample      // closed-loop /query calls of the untraced part
	traced  []sample      // those of the traced part
	updates []sample      // paced /update calls (serve-update), whole window
	cut     int           // listed requests the hard timeout never let start
	maxLag  time.Duration
	mid     *scrape // taken between the two parts of a traced run

	untracedQPS, tracedQPS float64
}

// setup builds the graphs, starts the server, warms it, and returns the
// timed window as a function.
func (r *serveRun) setup(ctx context.Context, bin string) (func(context.Context) *window, error) {
	ds, err := graph.ByName(twName)
	if err != nil {
		return nil, err
	}
	args := []string{}
	if r.name == "serve-update" {
		args = append(args, "-wal-dir", filepath.Join(r.tmp, "wal"))
	} else {
		r.spans.timed("graph.Kronecker "+knName, func() {
			r.kn = graph.Kronecker(knName, r.sz.knScale, r.sz.knFactor, 1717)
		})
		dir := filepath.Join(r.tmp, "graphs")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		r.spans.timed("graph.WriteSegmentFile "+knName, func() {
			err = r.kn.WriteSegmentFile(filepath.Join(dir, knName+".pseg"))
		})
		if err != nil {
			return nil, err
		}
		args = append(args, "-graph-dir", dir)
	}
	r.spans.timed("piccolo-serve start", func() { r.srv, err = startServer(bin, r.o.clients, args...) })
	if err != nil {
		return nil, err
	}
	r.ld = newLoader(r.srv.base, r.o.clients)
	r.ld.t0 = time.Now()

	// The server builds its own TW on the first query that names it; the
	// harness builds its copy (for source choice and the oracle) meanwhile.
	first := make(chan error, 1)
	go func() {
		body := fmt.Sprintf(`{"dataset":%q,"scale":%q,"kernel":"bfs"}`, twName, r.sz.scale)
		first <- r.warm(ctx, []*request{{path: "/query", body: []byte(body), graph: twName, kernel: "bfs", src: -1}})
	}()
	r.spans.timed("graph.Dataset.Build "+twName, func() { r.tw = ds.Build(r.sz.scale) })
	if err := <-first; err != nil {
		return nil, err
	}

	switch r.name {
	case "serve-cold":
		return r.setupCold(ctx)
	case "serve-hot":
		return r.setupHot(ctx)
	default:
		return r.setupUpdate(ctx)
	}
}

// maxIters is the iteration cap a query carries (0: the kernel's default).
// The PageRank kernels need 80-100 iterations to converge on these graphs,
// which costs the serial reference 1.5 s per checked answer; ten iterations
// exercise the same supersteps and keep the oracle inside the run's budget.
func maxIters(kernel string) int {
	if kernel == "pr" || kernel == "ppr" {
		return 10
	}
	return 0
}

// sources returns n distinct well-connected vertices of g in seeded order.
// Low-degree and isolated vertices are left out so that every traversal
// reaches the giant component and requests cost about the same whatever
// the seed.
func (r *serveRun) sources(rng *rand.Rand, g *graph.CSR, n int) ([]int64, error) {
	var cand []int64
	for v := uint32(0); v < g.V; v++ {
		if g.OutDeg(v) >= r.sz.minDegree {
			cand = append(cand, int64(v))
		}
	}
	if len(cand) < n {
		return nil, fmt.Errorf("graph %s has %d vertices of out-degree >= %d, need %d", g.Name, len(cand), r.sz.minDegree, n)
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	return cand[:n], nil
}

// query prepares one /query call. TW is addressed as a generator dataset
// at the workload's scale (in-RAM arm); kn17 by its stored name.
func (r *serveRun) query(g *graph.CSR, kernel string, src int64) *request {
	body := map[string]any{"dataset": g.Name, "kernel": kernel, "src": src, "k": topK}
	if g == r.tw {
		body["scale"] = r.sz.scale.String()
	}
	if n := maxIters(kernel); n > 0 {
		body["max_iters"] = n
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // a map of strings and ints
	}
	return &request{path: "/query", body: data, graph: g.Name, kernel: kernel, src: src, stored: g != r.tw}
}

// warm sends reqs once each, in order, over one connection and fails on
// the first error: a set-up that cannot finish is not a run.
func (r *serveRun) warm(ctx context.Context, reqs []*request) error {
	for _, req := range reqs {
		s := r.ld.do(ctx, 0, req, time.Now())
		r.spans.addSample("warm", s, r.ld.t0)
		if !s.ok() {
			return fmt.Errorf("warm-up %s %s: status %d %s (%s)", req.path, req.body, s.code, s.body, r.srv.tail())
		}
	}
	return nil
}

// setupCold: a fixed list of queries that all miss the result cache,
// alternating between the in-RAM and the stored graph, kernels cycling.
// The list length follows -seconds at a fixed rate, not the server's
// speed, so the results the unbounded cache retains (peak_rss_mb) do not
// depend on how fast the engine is.
func (r *serveRun) setupCold(ctx context.Context) (func(context.Context) *window, error) {
	n := int(r.sz.coldRate*r.o.seconds) / 8 * 8
	n = max(n, 8)
	graphs := []*graph.CSR{r.tw, r.kn}
	srcs := make([][]int64, 2)
	for i, g := range graphs {
		var err error
		if srcs[i], err = r.sources(r.rng, g, n/2+len(coldKernels)); err != nil {
			return nil, err
		}
	}
	// Warm-up: one query per kernel and graph on sources the list does not
	// use, so the server has built its graph, engines and lazy indexes.
	var warm []*request
	for i, g := range graphs {
		for j, k := range coldKernels {
			warm = append(warm, r.query(g, k, srcs[i][n/2+j]))
		}
	}
	if err := r.warm(ctx, warm); err != nil {
		return nil, err
	}
	list := make([]*request, n)
	for i := range list {
		list[i] = r.query(graphs[i%2], coldKernels[(i/2)%len(coldKernels)], srcs[i%2][i/2])
	}
	return func(ctx context.Context) *window {
		return r.fixedList(ctx, list)
	}, nil
}

// parts runs the window's closed loop: one untraced part, then in a traced
// run a scrape and a traced part. next(traced) is called as each part
// starts and returns that part's request source; r.ld.t0 is the window's
// start.
func (r *serveRun) parts(ctx context.Context, w *window, clients int, next func(traced bool) func(client int) *request) {
	part := func(traced bool) (float64, []sample) {
		every := int32(0)
		if traced {
			every = 8
		}
		r.ld.traceEvery.Store(every)
		t0 := time.Now()
		ss := r.ld.closedLoop(ctx, clients, next(traced))
		return okPerSecond(ss, time.Since(t0)), ss
	}
	w.untracedQPS, w.queries = part(false)
	w.wall = time.Since(r.ld.t0)
	if r.o.trace {
		// Without the scrape the counts fall back to the whole window.
		w.mid, _ = r.srv.scrape(ctx)
		w.tracedQPS, w.traced = part(true)
	}
}

// fixedList runs list through the closed loop: every client takes the next
// unsent request. In a traced run the second half of the list is the
// traced part.
func (r *serveRun) fixedList(ctx context.Context, list []*request) *window {
	w := &window{}
	half := len(list)
	if r.o.trace {
		half = len(list) / 2
	}
	r.ld.t0 = time.Now()
	r.parts(ctx, w, r.o.clients, func(traced bool) func(int) *request {
		rest := list[:half]
		if traced {
			rest = list[half:]
		}
		var idx atomic.Int64
		return func(int) *request {
			if i := int(idx.Add(1)) - 1; i < len(rest) {
				return rest[i]
			}
			return nil
		}
	})
	w.cut = len(list) - len(w.queries) - len(w.traced)
	return w
}

// all returns every sample of the window.
func (w *window) all() []sample {
	out := append([]sample(nil), w.queries...)
	out = append(out, w.traced...)
	return append(out, w.updates...)
}

func okPerSecond(ss []sample, wall time.Duration) float64 {
	n := 0
	for _, s := range ss {
		if s.ok() {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// setupHot: a 64-key pool (8 kernels x 4 sources x 2 graphs), every key
// executed once during set-up, so the window never reaches the engine.
func (r *serveRun) setupHot(ctx context.Context) (func(context.Context) *window, error) {
	// The pool is the same for every seed; the seed orders the draws. Which
	// lazy indexes the engine builds depends on the sources, and that alone
	// moves the server's live heap by 12 MB (and rss_mb by 10 %) between
	// pools; a fixed pool keeps runs at different seeds comparable.
	poolRNG := rand.New(rand.NewSource(64))
	var pool []*request
	for _, g := range []*graph.CSR{r.tw, r.kn} {
		srcs, err := r.sources(poolRNG, g, 4)
		if err != nil {
			return nil, err
		}
		for _, k := range hotKernels {
			for j, src := range srcs {
				if k == "kcore" {
					src = int64(2 + j) // kcore's source slot carries k
				}
				pool = append(pool, r.query(g, k, src))
			}
		}
	}
	if err := r.warm(ctx, pool); err != nil {
		return nil, err
	}
	// Each client draws pool indices from its own seeded stream.
	rngs := make([]*rand.Rand, r.o.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.o.seed*1000 + int64(c)))
	}
	return func(ctx context.Context) *window {
		return r.timeBoxed(ctx, func(c int) *request { return pool[rngs[c].Intn(len(pool))] }, r.o.clients, nil)
	}, nil
}

// timeBoxed runs the closed loop for -seconds (a traced run: half untraced,
// half traced), beside an optional paced writer.
func (r *serveRun) timeBoxed(ctx context.Context, next func(int) *request, clients int, writes []*request) *window {
	w := &window{}
	dur := time.Duration(r.o.seconds * float64(time.Second))
	r.ld.t0 = time.Now()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if len(writes) > 0 {
			interval := time.Second / batchRate
			w.updates, w.maxLag = r.ld.paced(ctx, clients, writes, interval)
		}
	}()
	// Requests in flight when a part's time is up finish; none is cut.
	r.parts(ctx, w, clients, func(traced bool) func(int) *request {
		d := dur
		if r.o.trace {
			d = dur / 2
		}
		end := time.Now().Add(d)
		return func(c int) *request {
			if !time.Now().Before(end) {
				return nil
			}
			return next(c)
		}
	})
	<-writerDone
	w.cut = len(writes) - len(w.updates)
	return w
}

// setupUpdate: writes beside reads on TW with a WAL. One update promotes
// the graph to the dynamic arm; each reader key is then converged so that
// the window's reads are repairs, not first runs.
func (r *serveRun) setupUpdate(ctx context.Context) (func(context.Context) *window, error) {
	srcs, err := r.sources(r.rng, r.tw, 4)
	if err != nil {
		return nil, err
	}
	var keys []*request
	for j, src := range srcs {
		for _, k := range updateKernels {
			s := src
			if k == "kcore" {
				s = int64(2 + j)
			}
			keys = append(keys, r.query(r.tw, k, s))
		}
	}
	n := int(batchRate * r.o.seconds)
	writes := make([]*request, n+1)
	for i := range writes {
		batch := make([]stream.EdgeUpdate, batchSize)
		for j := range batch {
			batch[j] = stream.EdgeUpdate{
				Src: uint32(r.rng.Intn(int(r.tw.V))), Dst: uint32(r.rng.Intn(int(r.tw.V))),
				Weight: uint8(1 + r.rng.Intn(255)),
			}
		}
		r.batches = append(r.batches, batch)
		body := fmt.Sprintf(`{"dataset":%q,"scale":%q,"edges":%s}`, twName, r.sz.scale, stream.EncodeBatch(batch))
		writes[i] = &request{path: "/update", body: []byte(body), graph: twName}
	}
	if err := r.warm(ctx, append([]*request{writes[0]}, keys...)); err != nil {
		return nil, err
	}
	var turn int
	return func(ctx context.Context) *window {
		// One reader connection, so next needs no lock.
		return r.timeBoxed(ctx, func(int) *request {
			turn++
			return keys[(turn-1)%len(keys)]
		}, 1, writes[1:])
	}, nil
}

// account turns the window's samples and the scrape deltas into metrics.
func (r *serveRun) account(w *window, before, after *scrape, selfCPU, rss, peakRSS float64) {
	res := r.res
	if w.mid != nil {
		after = w.mid
	}
	res.Attempted = len(w.queries) + len(w.traced) + len(w.updates) + w.cut
	if w.cut > 0 {
		res.fail(w.cut, "%d listed requests never started before the %v hard timeout", w.cut, hardTimeout)
	}
	bad := 0
	for _, s := range w.all() {
		if !s.ok() {
			bad++
			if bad <= 3 {
				res.fail(0, "%s %s: status %d %s", s.req.path, s.req.body, s.code, s.body)
			}
		}
	}
	if bad > 0 {
		res.fail(bad, "%d requests failed in transport or were answered non-2xx", bad)
	}

	lat := sortedLatencies(w.queries, sample.ok)
	res.set("ops_per_s", float64(len(lat))/w.wall.Seconds())
	res.set("p50_ms", ms(quantile(lat, 0.50)))
	res.set("p90_ms", ms(quantile(lat, 0.90)))
	res.set("rss_mb", rss)
	res.Info["samples"] = map[string]int{"queries": len(lat), "updates": len(w.updates)}
	res.Info["window_s"] = w.wall.Seconds()
	groups := map[string][]sample{}
	for _, s := range w.queries {
		groups[s.req.graph+"/"+s.req.kernel] = append(groups[s.req.graph+"/"+s.req.kernel], s)
	}
	byKernel := map[string]string{}
	for key, ss := range groups {
		l := sortedLatencies(ss, sample.ok)
		byKernel[key] = fmt.Sprintf("n=%d p50=%.3gms p90=%.3gms", len(l), ms(quantile(l, 0.5)), ms(quantile(l, 0.9)))
	}
	res.Info["by_kernel"] = byKernel
	// Workload-specific client-side numbers: under "extra" in an untraced
	// run, per-layer metrics in a traced one.
	if len(lat) >= 1000 {
		res.set("serve.p99_ms", ms(quantile(lat, 0.99)))
	}
	if ul := sortedLatencies(w.updates, sample.ok); len(ul) > 0 {
		res.set("serve.update_p50_ms", ms(quantile(ul, 0.50)))
		res.set("bench.writer_max_lag_ms", ms(w.maxLag))
	}
	static := sortedLatencies(w.queries, func(s sample) bool { return s.ok() && !s.req.stored })
	stored := sortedLatencies(w.queries, func(s sample) bool { return s.ok() && s.req.stored })
	res.set("runner.static_p50_ms", ms(quantile(static, 0.50)))
	res.set("runner.stored_p50_ms", ms(quantile(stored, 0.50)))
	res.set("bench.client_cpu_share", selfCPU/w.wall.Seconds())

	// The server's own account of the same window.
	const q = `{path="/query"}`
	reqs := delta(before, after, "piccolo_http_request_seconds_count"+q)
	httpMean := 0.0
	if reqs > 0 {
		httpMean = 1e3 * delta(before, after, "piccolo_http_request_seconds_sum"+q) / reqs
	}
	runnerMean := 0.0
	if n := delta(before, after, "piccolo_query_seconds_count"); n > 0 {
		runnerMean = 1e3 * delta(before, after, "piccolo_query_seconds_sum") / n
	}
	res.set("serve.http_query_mean_ms", httpMean)
	res.set("serve.handler_self_ms", httpMean-runnerMean)
	res.set("serve.client_gap_ms", ms(mean(lat))-httpMean)
	total, non2xx := 0.0, 0.0
	for key := range after.prom {
		var path, code string
		if n, _ := fmt.Sscanf(key, `piccolo_http_requests_total{code=%q,path=%q}`, &code, &path); n == 2 &&
			(path == "/query" || path == "/update") {
			d := delta(before, after, key)
			total += d
			if code[0] != '2' {
				non2xx += d
			}
		}
	}
	res.set("serve.requests_total", total)
	res.set("serve.non2xx_total", non2xx)
	shed := 0.0
	for key := range after.prom {
		if strings.HasPrefix(key, "piccolo_http_shed_total") {
			shed += delta(before, after, key)
		}
	}
	res.set("serve.shed_total", shed)
	if total > 0 {
		res.set("serve.cpu_us_per_req", 1e6*(after.cpu-before.cpu)/total)
	}
	res.set("serve.peak_rss_mb", peakRSS)
	res.set("obs.scrape_ms", ms(before.took+after.took)/2)

	res.set("runner.query_mean_ms", runnerMean)
	modes := map[string]float64{}
	sum := 0.0
	for _, m := range []string{"cached", "wait", "engine", "incremental", "full"} {
		modes[m] = delta(before, after, fmt.Sprintf(`piccolo_query_total{mode=%q}`, m))
		res.set("runner.mode_"+m, modes[m])
		sum += modes[m]
	}
	if sum > 0 {
		res.set("runner.hit_ratio", (modes["cached"]+modes["wait"])/sum)
	}
	res.set("runner.invalidated_total", delta(before, after, "piccolo_cache_invalidated_total"))

	res.set("engine.supersteps_push", statDelta(before, after, "supersteps_push"))
	res.set("engine.supersteps_pull", statDelta(before, after, "supersteps_pull"))

	inc := statDelta(before, after, "incremental_repairs")
	full := statDelta(before, after, "full_recomputes")
	if inc+full > 0 {
		res.set("stream.incremental_ratio", inc/(inc+full))
	}
	if inc > 0 {
		res.set("stream.repair_touched_per_query", statDelta(before, after, "repair_touched")/inc)
	}
	res.set("stream.repair_aborts", statDelta(before, after, "repair_aborts"))
	res.set("stream.compactions", statDelta(before, after, "compactions"))
	res.set("stream.updates_applied", statDelta(before, after, "updates_applied"))

	if r.o.trace {
		if w.untracedQPS > 0 {
			res.set("bench.trace_overhead_pct", 100*(1-w.tracedQPS/w.untracedQPS))
		}
		r.traceMetrics(w)
	}
}

// traceMetrics folds the server's ?trace=1 superstep spans of the sampled
// requests into per-query engine phase means, and logs every request as a
// harness span with the server's spans beneath it.
func (r *serveRun) traceMetrics(w *window) {
	type traceBody struct {
		EdgeVisits uint64 `json:"edge_visits"`
		Trace      *struct {
			TotalNS int64      `json:"total_ns"`
			Spans   []obs.Span `json:"spans"`
		} `json:"trace"`
	}
	all := w.all()
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	var traced, steps, pullSteps int
	var phase = map[string]float64{}
	var edges, totalNS float64
	var repairNS float64
	var repairs int
	for _, s := range all {
		id := r.spans.addSample("http "+s.req.path, s, r.ld.t0)
		if !s.traced || !s.ok() {
			continue
		}
		var body traceBody
		if err := json.Unmarshal(s.body, &body); err != nil || body.Trace == nil {
			r.res.fail(1, "traced reply without a trace: %.120s", s.body)
			continue
		}
		traced++
		edges += float64(body.EdgeVisits)
		totalNS += float64(body.Trace.TotalNS)
		for _, sp := range body.Trace.Spans {
			r.spans.addChild("server "+sp.Name, id, s.seq, r.ld.t0.Add(s.start), sp.StartNS, sp.DurNS, sp.Attrs)
			switch sp.Name {
			case "superstep":
				steps++
				if sp.Attrs["strategy"] == "pull" {
					pullSteps++
				}
				for _, k := range []string{"scatter_ns", "stream_ns", "gather_ns", "apply_ns", "pull_ns"} {
					if v, ok := sp.Attrs[k].(float64); ok {
						phase[k] += v
					}
				}
			case "repair":
				repairs++
				repairNS += float64(sp.DurNS)
			}
		}
	}
	r.res.Info["traced_requests"] = traced
	if traced == 0 {
		return
	}
	n := float64(traced)
	r.res.set("engine.supersteps_per_query", float64(steps)/n)
	// The dense push path fuses scatter and gather into one streaming pass;
	// it is counted as scatter.
	r.res.set("engine.scatter_ms", (phase["scatter_ns"]+phase["stream_ns"])/n/1e6)
	r.res.set("engine.gather_ms", phase["gather_ns"]/n/1e6)
	r.res.set("engine.apply_ms", phase["apply_ns"]/n/1e6)
	r.res.set("engine.pull_ms", phase["pull_ns"]/n/1e6)
	if steps > 0 {
		r.res.set("engine.pull_step_share", float64(pullSteps)/float64(steps))
	}
	if totalNS > 0 {
		r.res.set("engine.medges_per_s", edges/totalNS*1e3)
	}
	if repairs > 0 {
		r.res.set("stream.repair_ms", repairNS/float64(repairs)/1e6)
	}
}
