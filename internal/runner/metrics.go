package runner

import (
	"strconv"
	"time"

	"piccolo/internal/engine"
	"piccolo/internal/obs"
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
//	piccolo_run_total{outcome}           counter    hit|wait|exec|error|canceled
//	piccolo_query_seconds                histogram  query submission latency
//	piccolo_query_total{mode}            counter    cached|wait|engine|incremental|full|error|canceled
//	piccolo_query_queue_wait_seconds     histogram  time a query blocked on its mandatory worker slot
//	piccolo_query_rank_seconds           histogram  time QueryInfo.TopK spent producing a top-k
//	piccolo_query_rank_total{how}        counter    memo|computed: prefix of the entry's kept ranking, or a pass over the vector
//	piccolo_update_seconds               histogram  update-batch apply latency
//	piccolo_update_total{outcome}        counter    ok|error
//	piccolo_cache_hits_total{cache}      counter    sim|query (bridged)
//	piccolo_cache_misses_total{cache}    counter    sim|query (bridged)
//	piccolo_cache_invalidated_total      counter    query entries evicted by updates (bridged)
//	piccolo_stream_updates_total         counter    applied batches (bridged)
//	piccolo_stream_edges_applied_total   counter    (bridged)
//	piccolo_stream_repairs_total{kind}   counter    incremental|full|cached (bridged)
//	piccolo_stream_repair_touched_total  counter    touched-set sizes, summed (bridged)
//	piccolo_stream_repair_edges_total    counter    repair edge visits, summed (bridged)
//	piccolo_stream_repair_aborts_total   counter    fat repairs abandoned (bridged)
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

	runSeconds    *obs.Histogram
	querySeconds  *obs.Histogram
	queueWait     *obs.Histogram
	rankSeconds   *obs.Histogram
	updateSeconds *obs.Histogram

	runOutcome map[string]*obs.Counter
	queryMode  map[string]*obs.Counter
	rankHow    map[string]*obs.Counter
	updateOK   *obs.Counter
	updateErr  *obs.Counter
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
		runOutcome: map[string]*obs.Counter{},
		queryMode:  map[string]*obs.Counter{},
		rankHow:    map[string]*obs.Counter{},
		updateOK: reg.Counter("piccolo_update_total",
			"Update batches by outcome.", obs.L("outcome", "ok")),
		updateErr: reg.Counter("piccolo_update_total",
			"Update batches by outcome.", obs.L("outcome", "error")),
	}
	for _, o := range []string{"hit", "wait", "exec", "error", "canceled"} {
		m.runOutcome[o] = reg.Counter("piccolo_run_total",
			"Simulation submissions by serving outcome.", obs.L("outcome", o))
	}
	for _, mode := range []string{"cached", "wait", "engine", "incremental", "full", "error", "canceled"} {
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
	reg.CounterFunc("piccolo_stream_updates_total",
		"Applied edge-update batches across all streamed graphs.",
		func() uint64 { return r.StreamStats().Version })
	reg.CounterFunc("piccolo_stream_edges_applied_total",
		"Edges inserted across all update batches.",
		func() uint64 { return r.StreamStats().EdgesApplied })
	for _, k := range []struct {
		kind string
		get  func() uint64
	}{
		{"incremental", func() uint64 { return r.StreamStats().IncrementalRepairs }},
		{"full", func() uint64 { return r.StreamStats().FullRecomputes }},
		{"cached", func() uint64 { return r.StreamStats().CachedServes }},
	} {
		reg.CounterFunc("piccolo_stream_repairs_total",
			"Streamed-graph queries by serving kind.", k.get, obs.L("kind", k.kind))
	}
	reg.CounterFunc("piccolo_stream_repair_touched_total",
		"Touched-set sizes (vertices improved) summed across incremental repairs.",
		func() uint64 { return r.StreamStats().RepairTouched })
	reg.CounterFunc("piccolo_stream_repair_edges_total",
		"Edge visits summed across incremental repairs (including aborted ones).",
		func() uint64 { return r.StreamStats().RepairEdges })
	reg.CounterFunc("piccolo_stream_repair_aborts_total",
		"Incremental repairs abandoned for a full run (fat touched set).",
		func() uint64 { return r.StreamStats().RepairAborts })
	reg.CounterFunc("piccolo_stream_compactions_total",
		"Overlay compactions across all streamed graphs.",
		func() uint64 { return r.StreamStats().Compactions })
	// Index carried across versions (DESIGN.md §9): a full recompute on a
	// moved graph either derives its engine index from the predecessor's or
	// rebuilds it; mostly "rebuilt" under steady updates means compactions or
	// log overflows keep forcing the O(V+E) path.
	reg.CounterFunc("piccolo_stream_index_total",
		"Engine indexes of full recomputes by how they were obtained.",
		func() uint64 { return r.StreamStats().IndexCarried }, obs.L("how", "carried"))
	reg.CounterFunc("piccolo_stream_index_total",
		"Engine indexes of full recomputes by how they were obtained.",
		func() uint64 { return r.StreamStats().IndexRebuilt }, obs.L("how", "rebuilt"))
	// Queries and updates of one streamed graph serialize on its engine's
	// mutex (a repair mutates the memoized fixed point in place): the time
	// they spent blocked there, which a query spends holding its worker slot
	// and which piccolo_query_queue_wait_seconds does not see.
	reg.SecondsCounterFunc("piccolo_stream_lock_wait_seconds_total",
		"Time queries and updates spent blocked on a streamed graph's engine mutex.",
		func() uint64 { return r.StreamStats().LockWaitNs })
	reg.CounterFunc("piccolo_stream_lock_waits_total",
		"Queries and updates that found a streamed graph's engine mutex held.",
		func() uint64 { return r.StreamStats().LockWaits })
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
		if se := r.stored.get(name); se != nil {
			return se.seg.Decoded()
		}
		return 0, 0
	}
	m.reg.CounterFunc("piccolo_segment_blocks_decoded_total",
		"Segment blocks decoded since the stored graph was opened (flat once the engine's indexes are built).",
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

// observeUpdate records one update batch.
func (m *runnerMetrics) observeUpdate(err error, start time.Time) {
	m.updateSeconds.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		m.updateErr.Inc()
	} else {
		m.updateOK.Inc()
	}
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

// GraphsLoaded reports how many dataset proxies the graph cache holds.
func (r *Runner) GraphsLoaded() int { return r.graphs.size() }
