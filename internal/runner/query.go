package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

// Query is one declarative functional-execution job: run a kernel to
// convergence on a dataset proxy with the sharded parallel engine — no
// timing model, just the converged vertex properties. Queries flow through
// the same worker pool and the same content-addressed single-flight
// machinery as simulation jobs, so concurrent identical queries execute
// once (cmd/piccolo-serve's POST /query rides on this).
type Query struct {
	// Dataset names a Table II proxy (UU, TW, SW, FS, PP, WS26, ...).
	Dataset string
	// Kernel is a registered kernel name (algorithms.Names()).
	Kernel string
	Scale  graph.Scale
	// Src's meaning follows the kernel descriptor's source role: ignored,
	// a traversal source vertex (negative or at/beyond the graph's vertex
	// count selects the highest-out-degree vertex, canonicalized to -1
	// against the built graph), or a kernel parameter (k-core's k;
	// negative selects the descriptor default, canonicalized to -1).
	Src int64
	// MaxIters caps the iteration count; 0 selects the kernel's
	// DefaultMaxIters, then engine.DefaultMaxIters.
	MaxIters int
	// Version is the graph version the query addresses — the number of
	// update batches applied to (Dataset, Scale) via Runner.ApplyUpdates
	// (DESIGN.md §10). RunQuery always overwrites it with the authoritative
	// current version before keying the cache, so callers need not (and
	// cannot usefully) set it; it is exported only so the content hash
	// covers it.
	Version uint64
	// Digest is the segment content digest when Dataset names a stored
	// graph (DESIGN.md §14) and empty otherwise. Like Version it is
	// authoritative: RunQuery overwrites it from the registered segment
	// before keying, so stored-graph results are content-addressed by the
	// exact bytes on disk rather than by a mutable name.
	Digest string
	// KernelV is the kernel's descriptor version, folded into the content
	// address so a semantics bump invalidates cached results computed
	// under the old behavior. Authoritative like Version: canonical()
	// overwrites it from the registry, so callers cannot usefully set it.
	KernelV int
}

// canonical collapses spellings that execute identically onto one content
// address, consulting the kernel's descriptor: a source-ignoring kernel
// aliases every Src to -1, a param kernel keeps any non-negative Src
// (params are not vertex-bounded), and the iteration default is the
// kernel's own cap before engine.DefaultMaxIters. The descriptor version
// is stamped into KernelV so semantics bumps re-address. The engine's
// worker count is deliberately NOT part of the identity: the engine is
// bit-deterministic at every worker count, so the result is the same
// whatever parallelism executed it. Vertex-source Src values at or beyond
// the graph's vertex count also alias -1, but collapsing them needs the
// graph — RunQuery does it before keying. An unregistered kernel name
// canonicalizes shape-only; the typed unknown-kernel error surfaces at
// execution.
func (q Query) canonical() Query {
	if q.Src < 0 {
		q.Src = -1
	}
	k, err := algorithms.New(q.Kernel)
	if err != nil {
		q.KernelV = 0
		if q.MaxIters <= 0 {
			q.MaxIters = engine.DefaultMaxIters
		}
		return q
	}
	d := k.Descriptor()
	q.KernelV = d.Version
	if d.Source == algorithms.SourceIgnored {
		q.Src = -1
	}
	q.MaxIters = algorithms.EffectiveMaxIters(d, q.MaxIters, engine.DefaultMaxIters)
	return q
}

// CanonicalFor returns the fully canonical form of q for graph g — the
// form RunQuery keys the cache with: defaults applied and, for kernels
// whose descriptor declares a vertex source, any Src at or beyond g.V
// collapsed to -1 (the highest-out-degree default, exactly as core.Run
// treats Config.Src). Callers that surface Key() next to a result, like
// piccolo-serve, canonicalize with this instead of re-implementing the
// rule.
func (q Query) CanonicalFor(g *graph.CSR) Query {
	q = q.canonical()
	if q.Src >= int64(g.V) && kernelSourceIsVertex(q.Kernel) {
		q.Src = -1
	}
	return q
}

// kernelSourceIsVertex reports whether the named kernel's src argument is
// a vertex id (and thus subject to vertex-count collapsing); unregistered
// names default to true, matching the pre-registry behavior.
func kernelSourceIsVertex(name string) bool {
	k, err := algorithms.New(name)
	if err != nil {
		return true
	}
	return k.Descriptor().Source == algorithms.SourceVertex
}

// Key returns the query's canonical content hash (without the graph-aware
// Src collapsing of CanonicalFor). Queries and simulation jobs live in
// separate cache namespaces, so their keys cannot collide.
func (q Query) Key() string { return contentKey(q.canonical()) }

// QueryInfo describes how RunQueryInfo served a query.
type QueryInfo struct {
	// Key is the versioned content address the result is cached under.
	Key string
	// Version is the graph version the result was computed on.
	Version uint64
	// Edges is the graph's edge count at that version — snapshotted with
	// the execution, so it stays consistent with Version and the result
	// even when updates race the query.
	Edges uint64
	// Mode records the serving path: "cached" (runner query cache or the
	// dynamic engine's fixed-point memo), "engine" (static parallel
	// engine), "incremental" (monotone repair) or "full" (full run on the
	// materialized updated graph).
	Mode string

	// entry is the served result with its memoized ranking (TopK); nil when
	// the query failed.
	entry *queryEntry
}

// queryEntry is what the query cache stores: the result, the graph version
// and edge count it was computed on — so cache hits and single-flight
// waiters report the execution's true state even when it differs from the
// version the caller keyed on (a query racing an update) — and the result's
// ranking, memoized by the first request that asks for one. Every serving arm
// builds its entry with newQueryEntry, cached or not: a traced result, or a
// dynamic one that landed on a newer version than its key, is ranked through
// the same call with an entry nobody else sees.
type queryEntry struct {
	res     *algorithms.ReferenceResult
	version uint64
	edges   uint64

	kernel  string
	metrics *runnerMetrics
	// rank is the longest ranking of res.Prop computed so far. It lives and
	// dies with the entry (removeKeys, reset) and is bounded by the k its
	// callers ask for — piccolo-serve caps k at 1000, 16 KB beside a property
	// vector of 8 bytes per vertex.
	rank atomic.Pointer[ranking]
}

// ranking is an immutable top-k of one result: the first min(k, rankable
// vertices) entries of the result's total order.
type ranking struct {
	k   int
	top []engine.VertexScore
}

func (r *Runner) newQueryEntry(q Query, res *algorithms.ReferenceResult, version, edges uint64) *queryEntry {
	return &queryEntry{res: res, version: version, edges: edges, kernel: q.Kernel, metrics: r.metrics}
}

// How QueryInfo.TopK produced a ranking (the piccolo_query_rank_total label).
const (
	RankMemo     = "memo"     // a prefix of the ranking kept with the result
	RankComputed = "computed" // a pass over the whole property vector
)

// TopK returns the k best vertices of the query's result, ranked as
// engine.TopK ranks them, and how it got them. The first call on a result
// ranks its property vector and keeps the ranking with the cache entry; later
// calls — every further hit on that entry — return a prefix of it, so a hit
// costs O(k), not O(V). That is exact, not approximate: the ranking order is
// a strict total one (score, then lower vertex ID), so the top-k' is the
// first k' entries of the top-k for every k' <= k, and a ranking shorter than
// the k it was computed with holds every rankable vertex and answers any k.
// Only a larger k on a full ranking recomputes, and replaces the memo; racing
// computations store equal rankings or prefixes of one another, so readers
// need no lock. The returned slice is shared and capacity-clipped: callers
// must not write to it, and appending to it copies.
func (i QueryInfo) TopK(k int) (top []engine.VertexScore, how string, err error) {
	e := i.entry
	if e == nil {
		return nil, "", errors.New("runner: no result to rank")
	}
	start := time.Now()
	top, how, err = e.topK(k)
	e.metrics.observeRank(how, start)
	return top, how, err
}

func (e *queryEntry) topK(k int) ([]engine.VertexScore, string, error) {
	if r := e.rank.Load(); r != nil && k >= 0 && (k <= r.k || len(r.top) < r.k) {
		n := min(k, len(r.top))
		if n == 0 {
			return nil, RankMemo, nil // what engine.TopK returns for an empty ranking
		}
		return r.top[:n:n], RankMemo, nil
	}
	top, err := engine.TopK(e.kernel, e.res.Prop, k)
	if err != nil {
		return nil, RankComputed, err
	}
	top = top[:len(top):len(top)]
	e.rank.Store(&ranking{k: k, top: top})
	return top, RankComputed, nil
}

// RunQuery executes one query through the query cache: a memoized result
// returns immediately, a duplicate of an in-flight query waits for it, and
// a fresh query runs on the parallel engine — the static per-graph engine
// for a never-updated dataset, the streaming DynamicEngine (incremental
// repair with full-run fallback) once updates have been applied.
//
// Cancellation is cooperative end to end: the context is honored while
// queuing for a worker slot, while waiting on an identical in-flight
// query, and — through engine.RunCtx / stream.QueryOpts — at every
// superstep or repair-round boundary of the execution itself. On
// cancellation the error is ctx.Err() and the returned result, when
// non-nil, carries partial-progress stats only (Iterations/EdgeVisits with
// nil Prop — piccolo-serve surfaces them in its 504 body). A canceled
// execution stores nothing, and single-flight waiters never inherit a
// leader's context error: they retry the lookup with their own budget.
func (r *Runner) RunQuery(ctx context.Context, q Query) (*algorithms.ReferenceResult, error) {
	res, _, err := r.RunQueryInfo(ctx, q)
	return res, err
}

// RunQueryInfo is RunQuery plus serving metadata: the versioned cache key,
// the graph version the result reflects, which execution path served it,
// and the result's ranking (QueryInfo.TopK).
func (r *Runner) RunQueryInfo(ctx context.Context, q Query) (*algorithms.ReferenceResult, QueryInfo, error) {
	start := time.Now()
	entry, info, err := r.runQuery(ctx, q, nil)
	return r.served(entry, info, err, start)
}

// RunQueryTraced executes q with a span recorder attached and returns the
// trace next to the result: per-superstep engine spans for an execution,
// one repair span for an incremental serve (DESIGN.md §11). Traced
// queries bypass the result cache and the single-flight machinery — a
// cached result has no execution to trace — so this is the debugging
// path, not the serving path; it still counts in the query metrics under
// its execution mode.
func (r *Runner) RunQueryTraced(ctx context.Context, q Query) (*algorithms.ReferenceResult, QueryInfo, *obs.Trace, error) {
	start := time.Now()
	tr := obs.NewTrace()
	entry, info, err := r.runQuery(ctx, q, tr)
	res, info, err := r.served(entry, info, err, start)
	if err != nil {
		tr = nil
	}
	return res, info, tr, err
}

// served finishes a query submission: it counts the query under its serving
// mode and unpacks the entry into the public result — on success with the
// entry attached to info for TopK, on cancellation with whatever partial
// progress the entry carries.
func (r *Runner) served(entry *queryEntry, info QueryInfo, err error, start time.Time) (*algorithms.ReferenceResult, QueryInfo, error) {
	var res *algorithms.ReferenceResult
	if entry != nil {
		res = entry.res
	}
	mode := info.Mode
	switch {
	case err == nil:
		info.entry = entry
	case ctxErr(err):
		mode = "canceled"
	default:
		mode = "error"
	}
	r.metrics.observeQuery(mode, start)
	return res, info, err
}

// runQuery resolves q to an entry. A non-nil tr selects the uncached traced
// path: the execution records its spans there and nothing is looked up,
// waited for or stored.
func (r *Runner) runQuery(ctx context.Context, q Query, tr *obs.Trace) (*queryEntry, QueryInfo, error) {
	// Stored graphs (opened segments) shadow generator datasets of the
	// same name and take the digest-keyed read-only path.
	if se := r.stored.get(q.Dataset); se != nil {
		return r.runStoredQuery(ctx, q, se, tr)
	}
	// Build (or fetch) the graph first: it resolves dataset errors before
	// anything is cached, and CanonicalFor collapses every out-of-range
	// Src onto the default so aliases share one cache entry.
	g, err := r.graphs.get(q.Dataset, q.Scale)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	q = q.CanonicalFor(g)
	// The loop re-enters the lookup when a wait ended with the *leader's*
	// context error: that leader's deadline says nothing about this
	// caller's budget, so the waiter retries as a potential leader (its own
	// expiry is checked in the select). Each retry re-snapshots the version
	// — it may have moved while waiting.
	for {
		d := r.streams.peek(q.Dataset, q.Scale)
		q.Version = 0
		if d != nil {
			q.Version = d.Version()
		}
		key := q.Key()
		info := QueryInfo{Key: key, Version: q.Version}
		if tr != nil {
			entry, err := r.execQuery(ctx, q, g, d, tr, &info)
			return entry, info, err
		}
		info.Mode = "cached"
		entry, c, leader := r.queries.lookup(key)
		if c == nil {
			info.Version, info.Edges = entry.version, entry.edges
			return entry, info, nil // cache hit
		}
		if !leader {
			select {
			case <-c.done: // identical query already in flight
			case <-ctx.Done():
				return nil, info, ctx.Err()
			}
			if c.err != nil && ctxErr(c.err) {
				continue // leader's deadline, not ours: retry for leadership
			}
			if c.err == nil {
				// The leader's entry carries the state it actually executed
				// at — which may be newer than the keyed version if an update
				// raced in; report that, not the snapshot.
				info.Version, info.Edges = c.res.version, c.res.edges
			}
			return c.res, info, c.err
		}
		entry, err = r.execQuery(ctx, q, g, d, nil, &info)
		// Serving a result newer than its key is fine (the query raced the
		// update), but it must not be stored under the older version's key —
		// waiters still learn the true version from the entry.
		store := err == nil && entry.version == q.Version
		r.queries.complete(key, c, entry, err, store)
		if store {
			r.queryKeys.add(streamKey(q.Dataset, q.Scale), key)
		}
		return entry, info, err
	}
}

// execQuery runs q — canonical and stamped with the version it is keyed on —
// on the static engine of a never-updated graph (d == nil) or on the graph's
// DynamicEngine, and records in info how it was served. An update may land
// between the version snapshot and a dynamic execution; the dynamic engine
// reports the version it actually ran at, and the entry and info carry that
// one.
func (r *Runner) execQuery(ctx context.Context, q Query, g *graph.CSR, d *stream.DynamicEngine, tr *obs.Trace, info *QueryInfo) (*queryEntry, error) {
	if d == nil {
		info.Mode, info.Edges = "engine", g.E()
		res, err := r.execEngineQuery(ctx, q, engineKey{name: q.Dataset, scale: q.Scale}, graph.AsStore(g), tr)
		return r.newQueryEntry(q, res, 0, g.E()), err
	}
	res, sinfo, err := r.execDynamicQuery(ctx, q, d, tr)
	if err == nil {
		info.Version, info.Edges, info.Mode = sinfo.Version, sinfo.Edges, sinfo.Mode
	}
	return r.newQueryEntry(q, res, sinfo.Version, sinfo.Edges), err
}

// querySlot acquires a query's mandatory worker slot, recording how long
// the query queued for it (piccolo_query_queue_wait_seconds).
func (r *Runner) querySlot(ctx context.Context) (*slots, error) {
	start := time.Now()
	s, err := r.slots.acquire(ctx)
	r.metrics.queueWait.Observe(time.Since(start).Nanoseconds())
	return s, err
}

// execEngineQuery runs q on the memoized engine of a static graph or a
// stored segment (key says which; st is its adjacency). The engine is a
// shared read-only index, so queries on one graph run side by side; the
// only thing a query ever queues for is its mandatory worker slot, and that
// wait ends with the context. Once running, the query's phase width follows
// the pool at every superstep boundary (slotPool) — the width never changes
// the result bits — and cancellation is checked at the same boundaries
// inside RunCtx. A non-nil tr records this run's spans. Panics are
// converted to errors for the same reason as in exec, and evict the
// memoized engine: the panicking run's scratch state is dropped by the
// engine itself, but a panic inside a lazy index build would leave a
// half-built view behind a sync.Once that never retries.
func (r *Runner) execEngineQuery(ctx context.Context, q Query, key engineKey, st graph.GraphStore, tr *obs.Trace) (res *algorithms.ReferenceResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.engines.evict(key)
			res, err = nil, fmt.Errorf("runner: query %s on %s panicked: %v",
				q.Kernel, q.Dataset, p)
		}
	}()
	k, err := algorithms.New(q.Kernel)
	if err != nil {
		return nil, err
	}
	src := algorithms.ResolveSource(k.Descriptor(), q.Src, st.NumVertices(), func() uint32 {
		s, _ := graph.HighestDegreeVertexStore(st)
		return s
	})
	eng := r.engines.get(key, func() *engine.Engine {
		return engine.NewFromStore(st, engine.Config{Workers: r.workers})
	})
	s, err := r.querySlot(ctx)
	if err != nil {
		return nil, err
	}
	defer s.release()
	return eng.RunCtx(ctx, k, src, q.MaxIters, engine.RunOptions{Width: s.width, Trace: tr})
}

// execDynamicQuery serves a query on an updated graph through its
// DynamicEngine, under the same worker-pool discipline as execEngineQuery.
// The width only matters when the repair falls back to a full run
// (incremental repairs are single-threaded and cheap). The DynamicEngine
// still serializes its queries and updates on its own lock — a repair
// mutates the memoized fixed point — and that wait is bounded by the run
// holding it, which is itself cancelable at every repair-round or superstep
// boundary. A non-nil tr records this execution's spans.
func (r *Runner) execDynamicQuery(ctx context.Context, q Query, d *stream.DynamicEngine, tr *obs.Trace) (res *algorithms.ReferenceResult, info stream.QueryInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("runner: query %s on %s panicked: %v",
				q.Kernel, q.Dataset, p)
		}
	}()
	s, err := r.querySlot(ctx)
	if err != nil {
		return nil, info, err
	}
	defer s.release()
	return d.QueryOpts(ctx, q.Kernel, q.Src, q.MaxIters, engine.RunOptions{Width: s.width, Trace: tr})
}

// QueryStats returns a snapshot of the query cache's counters (simulation
// jobs are counted separately by Stats).
func (r *Runner) QueryStats() Stats { return r.queries.stats() }

// engineKey names one memoized engine: a generator dataset at a scale, or a
// registered segment (whose scale is meaningless and left zero).
type engineKey struct {
	name   string
	scale  graph.Scale
	stored bool
}

// engineCache memoizes one engine per graph, so repeated queries against
// the same graph amortize the O(V+E) sharding pass and the lazily built
// dense and pull views instead of repaying them per cache miss. An engine
// is a read-only index that any number of queries run on at once.
type engineCache struct {
	mu sync.Mutex
	m  map[engineKey]*engineEntry
}

type engineEntry struct {
	once sync.Once
	eng  *engine.Engine
}

func newEngineCache() *engineCache {
	return &engineCache{m: map[engineKey]*engineEntry{}}
}

// get returns the memoized engine for key, building it on first use
// (outside the cache-wide lock, like graphCache; concurrent first users
// wait for the one build).
func (c *engineCache) get(key engineKey, build func() *engine.Engine) *engine.Engine {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &engineEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.eng = build() })
	return e.eng
}

// evict drops the entry for key so the next query rebuilds it; runs still
// executing on the old engine finish on it undisturbed.
func (c *engineCache) evict(key engineKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

func (c *engineCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[engineKey]*engineEntry{}
}
