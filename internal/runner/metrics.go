package runner

import (
	"strconv"
	"time"

	"piccolo/internal/engine"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

// Metrics instrumentation (DESIGN.md §11). Every Runner owns one
// obs.Registry; the event-driven series below are recorded inline on the
// run/query/update paths (handles pre-registered — no registry lookup on
// the hot path), while the pre-existing cumulative counters (cache Stats,
// stream Stats, memoized-graph count) are bridged in as scrape-time
// callbacks so there is exactly one source of truth for each number.
//
// Inventory owned by this file:
//
//	piccolo_run_seconds                  histogram  /run-path submission latency
//	piccolo_run_total{outcome}           counter    hit|wait|exec|invalid|error|canceled
//	piccolo_query_seconds                histogram  query submission latency
//	piccolo_query_total{mode}            counter    cached|wait|engine|incremental|full|invalid|error|canceled
//	piccolo_query_queue_wait_seconds     histogram  time a query blocked on its mandatory worker slot
//	piccolo_query_rank_seconds           histogram  time QueryInfo.TopK spent producing a top-k
//	piccolo_query_rank_total{how}        counter    memo|computed: prefix of the entry's kept ranking, or a pass over the vector
//	piccolo_update_seconds               histogram  update-batch apply latency
//	piccolo_update_total{outcome}        counter    ok|invalid|error|canceled
//	piccolo_graph_build_seconds          histogram  dataset proxy builds (memo misses only)
//	piccolo_cache_hits_total{cache}      counter    sim|query (bridged)
//	piccolo_cache_misses_total{cache}    counter    sim|query (bridged)
//	piccolo_cache_invalidated_total      counter    query entries evicted by updates (bridged)
//	piccolo_cache_evicted_total{cache}   counter    query: entries evicted to keep the cache within its byte budget (bridged)
//	piccolo_query_cache_bytes            gauge      bytes the query cache's stored results count against that budget (bridged)
//	piccolo_stream_updates_total         counter    applied batches (bridged)
//	piccolo_stream_edges_applied_total   counter    (bridged)
//	piccolo_stream_repairs_total{kind}   counter    incremental|full|cached (bridged)
//	piccolo_stream_repair_touched_total  counter    touched-set sizes, summed (bridged)
//	piccolo_stream_repair_edges_total    counter    repair edge visits, summed (bridged)
//	piccolo_stream_compactions_total     counter    (bridged)
//	piccolo_stream_index_total{how}      counter    carried|rebuilt engine indexes of full recomputes (bridged)
//	piccolo_stream_lock_wait_seconds_total  counter  time queries and updates spent blocked on a streamed graph's engine mutex (bridged)
//	piccolo_stream_lock_waits_total      counter    queries and updates that found that mutex held (bridged)
//	piccolo_engine_supersteps_total{strategy}  counter  push|pull iterations (bridged)
//	piccolo_engine_run_width{width}      counter    supersteps executed at each phase width (bridged)
//	piccolo_engine_runs_inflight         gauge      engine runs executing right now (bridged)
//	piccolo_segment_blocks_decoded_total{graph}  counter  segment blocks decoded since open, per stored graph (bridged)
//	piccolo_segment_edges_decoded_total{graph}   counter  edges in those blocks (bridged)
//	piccolo_graphs_loaded                gauge      memoized dataset proxies (bridged)
//	piccolo_workers                      gauge      worker-pool size (bridged)
type runnerMetrics struct {
	reg *obs.Registry

	runSeconds        *obs.Histogram
	querySeconds      *obs.Histogram
	queueWait         *obs.Histogram
	rankSeconds       *obs.Histogram
	updateSeconds     *obs.Histogram
	graphBuildSeconds *obs.Histogram

	runOutcome    map[string]*obs.Counter
	queryMode     map[string]*obs.Counter
	rankHow       map[string]*obs.Counter
	updateOutcome map[string]*obs.Counter
}

func newRunnerMetrics(r *Runner) *runnerMetrics {
	reg := obs.NewRegistry()
	m := &runnerMetrics{
		reg: reg,
		runSeconds: reg.Histogram("piccolo_run_seconds",
			"Simulation submission latency through the runner (includes cache hits)."),
		querySeconds: reg.Histogram("piccolo_query_seconds",
			"Functional query submission latency through the runner."),
		queueWait: reg.Histogram("piccolo_query_queue_wait_seconds",
			"Time a query blocked on its mandatory worker slot before running (near zero unless the pool is saturated)."),
		rankSeconds: reg.Histogram("piccolo_query_rank_seconds",
			"Time spent producing a query's top-k: O(k) from the ranking kept with a cached result, O(V log k) for a result's first."),
		updateSeconds: reg.Histogram("piccolo_update_seconds",
			"Edge-update batch apply latency."),
		graphBuildSeconds: reg.Histogram("piccolo_graph_build_seconds",
			"Time spent generating a dataset proxy on its first use (memoized afterwards)."),
		runOutcome:    map[string]*obs.Counter{},
		queryMode:     map[string]*obs.Counter{},
		rankHow:       map[string]*obs.Counter{},
		updateOutcome: map[string]*obs.Counter{},
	}
	for _, o := range []string{"hit", "wait", "exec", "invalid", "error", "canceled"} {
		m.runOutcome[o] = reg.Counter("piccolo_run_total",
			"Simulation submissions by serving outcome.", obs.L("outcome", o))
	}
	for _, o := range []string{"ok", "invalid", "error", "canceled"} {
		m.updateOutcome[o] = reg.Counter("piccolo_update_total",
			"Update batches by outcome.", obs.L("outcome", o))
	}
	for _, mode := range []string{"cached", "wait", "engine", "incremental", "full", "invalid", "error", "canceled"} {
		m.queryMode[mode] = reg.Counter("piccolo_query_total",
			"Functional queries by serving mode.", obs.L("mode", mode))
	}
	for _, how := range []string{RankMemo, RankComputed} {
		m.rankHow[how] = reg.Counter("piccolo_query_rank_total",
			"Top-k rankings by how they were produced.", obs.L("how", how))
	}

	// Bridged series: the registry reads the owning subsystem at scrape
	// time. All closures capture r, whose referenced state is
	// mutex-guarded internally.
	for _, c := range []struct {
		cache string
		stats func() Stats
	}{{"sim", r.Stats}, {"query", r.QueryStats}} {
		stats := c.stats
		reg.CounterFunc("piccolo_cache_hits_total",
			"Content-addressed cache hits (stored results and in-flight waits).",
			func() uint64 { return stats().Hits }, obs.L("cache", c.cache))
		reg.CounterFunc("piccolo_cache_misses_total",
			"Content-addressed cache misses (executions).",
			func() uint64 { return stats().Misses }, obs.L("cache", c.cache))
	}
	reg.CounterFunc("piccolo_cache_invalidated_total",
		"Stored query results evicted by graph updates.",
		func() uint64 { return r.QueryStats().Invalidated })
	reg.CounterFunc("piccolo_cache_evicted_total",
		"Stored results evicted, least recently used first, to keep the cache within its byte budget.",
		func() uint64 { return r.QueryStats().Evicted }, obs.L("cache", "query"))
	reg.GaugeFunc("piccolo_query_cache_bytes",
		"Bytes of property vectors the query cache holds, bounded by its budget.",
		func() int64 { return int64(r.QueryStats().Bytes) })
	// Streamed-graph counters, summed over every promoted graph.
	streamed := func(name, help string, get func(stream.Stats) uint64, labels ...obs.Label) {
		reg.CounterFunc(name, help, func() uint64 { return get(r.StreamStats()) }, labels...)
	}
	streamed("piccolo_stream_updates_total", "Applied edge-update batches across all streamed graphs.",
		func(s stream.Stats) uint64 { return s.Version })
	streamed("piccolo_stream_edges_applied_total", "Edges inserted across all update batches.",
		func(s stream.Stats) uint64 { return s.EdgesApplied })
	streamed("piccolo_stream_repairs_total", "Streamed-graph queries by serving kind.",
		func(s stream.Stats) uint64 { return s.IncrementalRepairs }, obs.L("kind", "incremental"))
	streamed("piccolo_stream_repairs_total", "Streamed-graph queries by serving kind.",
		func(s stream.Stats) uint64 { return s.FullRecomputes }, obs.L("kind", "full"))
	streamed("piccolo_stream_repairs_total", "Streamed-graph queries by serving kind.",
		func(s stream.Stats) uint64 { return s.CachedServes }, obs.L("kind", "cached"))
	streamed("piccolo_stream_repair_touched_total", "Touched-set sizes (vertices improved) summed across incremental repairs.",
		func(s stream.Stats) uint64 { return s.RepairTouched })
	streamed("piccolo_stream_repair_edges_total", "Edge visits summed across incremental repairs (including canceled ones).",
		func(s stream.Stats) uint64 { return s.RepairEdges })
	streamed("piccolo_stream_compactions_total", "Overlay compactions across all streamed graphs.",
		func(s stream.Stats) uint64 { return s.Compactions })
	// Index carried across versions (DESIGN.md §9): a full recompute on a
	// moved graph either derives its engine index from the predecessor's or
	// rebuilds it on the overlay's base; mostly "rebuilt" under steady updates
	// means compactions keep forcing the O(V+E) index build.
	streamed("piccolo_stream_index_total", "Engine indexes of full recomputes by how they were obtained.",
		func(s stream.Stats) uint64 { return s.IndexCarried }, obs.L("how", "carried"))
	streamed("piccolo_stream_index_total", "Engine indexes of full recomputes by how they were obtained.",
		func(s stream.Stats) uint64 { return s.IndexRebuilt }, obs.L("how", "rebuilt"))
	// Queries and updates of one streamed graph serialize on its engine's
	// mutex (a repair mutates the memoized fixed point in place): the time
	// they spent blocked there, which a query spends holding its worker slot
	// and which piccolo_query_queue_wait_seconds does not see.
	reg.SecondsCounterFunc("piccolo_stream_lock_wait_seconds_total",
		"Time queries and updates spent blocked on a streamed graph's engine mutex.",
		func() uint64 { return r.StreamStats().LockWaitNs })
	streamed("piccolo_stream_lock_waits_total", "Queries and updates that found a streamed graph's engine mutex held.",
		func(s stream.Stats) uint64 { return s.LockWaits })
	// Direction-optimizing traversal (DESIGN.md §12): supersteps executed
	// by each strategy, process-wide across every engine. The split is the
	// operator's view of what the Beamer heuristic actually chose.
	reg.CounterFunc("piccolo_engine_supersteps_total",
		"Engine supersteps by traversal direction.",
		func() uint64 { push, _ := engine.SuperstepCounts(); return push },
		obs.L("strategy", "push"))
	reg.CounterFunc("piccolo_engine_supersteps_total",
		"Engine supersteps by traversal direction.",
		func() uint64 { _, pull := engine.SuperstepCounts(); return pull },
		obs.L("strategy", "pull"))
	// Width by demand (slotPool): how wide the supersteps actually ran, and
	// how many runs share the cores right now. Mostly width 1 with several
	// runs in flight is a loaded pool; mostly full width is an idle one.
	for w := 1; w <= r.workers; w++ {
		reg.CounterFunc("piccolo_engine_run_width",
			"Engine supersteps by the phase width they executed at.",
			func() uint64 { return engine.WidthSupersteps(w) },
			obs.L("width", strconv.Itoa(w)))
	}
	reg.GaugeFunc("piccolo_engine_runs_inflight",
		"Engine runs executing right now, process-wide.", engine.RunsInflight)
	reg.GaugeFunc("piccolo_engine_index_bytes",
		"Bytes the resident engines' indexes own beyond the graphs they share: pull tiles, degrees, row chunks.",
		func() int64 { return int64(r.engineIndexBytes()) })
	reg.GaugeFunc("piccolo_graphs_loaded",
		"Memoized dataset proxies resident in the graph cache.",
		func() int64 { return int64(r.GraphsLoaded()) })
	reg.GaugeFunc("piccolo_workers",
		"Worker-pool size.", func() int64 { return int64(r.Workers()) })
	return m
}

// bridgeSegment exports the decode counters of the stored graph registered
// under name. The series read through the registry, not the segment, so they
// follow the name: zero while it is closed, the new segment's counts if it
// is opened again.
func (m *runnerMetrics) bridgeSegment(r *Runner, name string) {
	decoded := func() (blocks, edges uint64) {
		if e := r.lookup(graphKey{name: name, stored: true}); e != nil {
			return e.seg.Decoded()
		}
		return 0, 0
	}
	m.reg.CounterFunc("piccolo_segment_blocks_decoded_total",
		"Segment blocks decoded since the stored graph was opened (one pass per engine build, flat across queries).",
		func() uint64 { blocks, _ := decoded(); return blocks }, obs.L("graph", name))
	m.reg.CounterFunc("piccolo_segment_edges_decoded_total",
		"Edges in the segment blocks decoded since the stored graph was opened.",
		func() uint64 { _, edges := decoded(); return edges }, obs.L("graph", name))
}

// observeRun records one /run-path submission.
func (m *runnerMetrics) observeRun(outcome string, start time.Time) {
	m.runSeconds.Observe(time.Since(start).Nanoseconds())
	if c := m.runOutcome[outcome]; c != nil {
		c.Inc()
	}
}

// observeQuery records one query submission under its serving mode.
func (m *runnerMetrics) observeQuery(mode string, start time.Time) {
	m.querySeconds.Observe(time.Since(start).Nanoseconds())
	c := m.queryMode[mode]
	if c == nil {
		c = m.reg.Counter("piccolo_query_total",
			"Functional queries by serving mode.", obs.L("mode", mode))
	}
	c.Inc()
}

// observeRank records one QueryInfo.TopK call.
func (m *runnerMetrics) observeRank(how string, start time.Time) {
	m.rankSeconds.Observe(time.Since(start).Nanoseconds())
	m.rankHow[how].Inc()
}

// observeUpdate records one update batch under its outcome.
func (m *runnerMetrics) observeUpdate(outcome string, start time.Time) {
	m.updateSeconds.Observe(time.Since(start).Nanoseconds())
	m.updateOutcome[outcome].Inc()
}

// Metrics returns the runner's registry, the single registration point
// for every process-wide metric (piccolo-serve adds its HTTP series to
// the same registry so GET /metrics is one coherent export).
func (r *Runner) Metrics() *obs.Registry { return r.metrics.reg }

// QueueWait summarizes how long queries have blocked on their mandatory
// worker slot (the piccolo_query_queue_wait_seconds histogram).
func (r *Runner) QueueWait() obs.LatencySummary {
	return r.metrics.queueWait.Snapshot().Summary()
}

// RankStats summarizes QueryInfo.TopK: how many rankings were prefixes of a
// cached entry's memo, how many took a pass over a property vector, and the
// latency of both together (the piccolo_query_rank_* series).
type RankStats struct {
	Memo     uint64 `json:"memo"`
	Computed uint64 `json:"computed"`
	obs.LatencySummary
}

// RankStats returns the ranking counters and latency summary.
func (r *Runner) RankStats() RankStats {
	m := r.metrics
	return RankStats{
		Memo:           m.rankHow[RankMemo].Value(),
		Computed:       m.rankHow[RankComputed].Value(),
		LatencySummary: m.rankSeconds.Snapshot().Summary(),
	}
}

// GraphsLoaded reports how many dataset proxies are built or building.
func (r *Runner) GraphsLoaded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k := range r.graphs {
		if !k.stored {
			n++
		}
	}
	return n
}
