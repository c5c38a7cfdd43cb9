package runner

import (
	"context"
	"fmt"
	"sync"
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
}

// queryEntry is what the query cache stores: the result plus the graph
// version and edge count it was computed on, so cache hits and
// single-flight waiters report the execution's true state even when it
// differs from the version the caller keyed on (a query racing an
// update).
type queryEntry struct {
	res     *algorithms.ReferenceResult
	version uint64
	edges   uint64
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
// the graph version the result reflects, and which execution path served
// it.
func (r *Runner) RunQueryInfo(ctx context.Context, q Query) (*algorithms.ReferenceResult, QueryInfo, error) {
	start := time.Now()
	res, info, err := r.runQueryInfo(ctx, q)
	mode := info.Mode
	if err != nil {
		mode = "error"
		if ctxErr(err) {
			mode = "canceled"
		}
	}
	r.metrics.observeQuery(mode, start)
	return res, info, err
}

func (r *Runner) runQueryInfo(ctx context.Context, q Query) (*algorithms.ReferenceResult, QueryInfo, error) {
	// Stored graphs (opened segments) shadow generator datasets of the
	// same name and take the digest-keyed read-only path.
	if se := r.stored.get(q.Dataset); se != nil {
		return r.runStoredQuery(ctx, q, se, nil)
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
		info := QueryInfo{Key: key, Version: q.Version, Mode: "cached"}
		entry, c, leader := r.queries.lookup(key)
		if c == nil {
			info.Version, info.Edges = entry.version, entry.edges
			return entry.res, info, nil // cache hit
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
			return c.res.res, info, c.err
		}
		var entryOut queryEntry
		if d == nil {
			info.Mode = "engine"
			info.Edges = g.E()
			res, err := r.execEngineQuery(ctx, q, engineKey{name: q.Dataset, scale: q.Scale}, graph.AsStore(g), nil)
			entryOut = queryEntry{res: res, version: 0, edges: g.E()}
			r.queries.complete(key, c, entryOut, err, err == nil)
			if err == nil {
				r.queryKeys.add(streamKey(q.Dataset, q.Scale), key)
			}
			return res, info, err
		}
		res, sinfo, err := r.execDynamicQuery(ctx, q, d, nil)
		entryOut = queryEntry{res: res, version: sinfo.Version, edges: sinfo.Edges}
		// An update may have landed between the version snapshot and the
		// execution; the dynamic engine reports the version it actually ran
		// at. Serving the newer result is fine (the query raced the update),
		// but it must not be stored under the older version's key — waiters
		// still learn the true version from the entry.
		store := err == nil && sinfo.Version == q.Version
		r.queries.complete(key, c, entryOut, err, store)
		if store {
			r.queryKeys.add(streamKey(q.Dataset, q.Scale), key)
		}
		if err == nil {
			info.Version = sinfo.Version
			info.Edges = sinfo.Edges
			info.Mode = sinfo.Mode
		}
		return res, info, err
	}
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
	if se := r.stored.get(q.Dataset); se != nil {
		tr := obs.NewTrace()
		res, info, err := r.runStoredQuery(ctx, q, se, tr)
		if err != nil {
			if ctxErr(err) {
				r.metrics.observeQuery("canceled", start)
			} else {
				r.metrics.observeQuery("error", start)
			}
			return res, info, nil, err
		}
		r.metrics.observeQuery(info.Mode, start)
		return res, info, tr, nil
	}
	g, err := r.graphs.get(q.Dataset, q.Scale)
	if err != nil {
		r.metrics.observeQuery("error", start)
		return nil, QueryInfo{}, nil, err
	}
	q = q.CanonicalFor(g)
	d := r.streams.peek(q.Dataset, q.Scale)
	q.Version = 0
	if d != nil {
		q.Version = d.Version()
	}
	tr := obs.NewTrace()
	info := QueryInfo{Key: q.Key(), Version: q.Version}
	observeErr := func(err error) {
		if ctxErr(err) {
			r.metrics.observeQuery("canceled", start)
		} else {
			r.metrics.observeQuery("error", start)
		}
	}
	if d == nil {
		info.Mode = "engine"
		info.Edges = g.E()
		res, err := r.execEngineQuery(ctx, q, engineKey{name: q.Dataset, scale: q.Scale}, graph.AsStore(g), tr)
		if err != nil {
			observeErr(err)
			return res, info, nil, err
		}
		r.metrics.observeQuery(info.Mode, start)
		return res, info, tr, nil
	}
	res, sinfo, err := r.execDynamicQuery(ctx, q, d, tr)
	if err != nil {
		observeErr(err)
		return res, info, nil, err
	}
	info.Version, info.Edges, info.Mode = sinfo.Version, sinfo.Edges, sinfo.Mode
	r.metrics.observeQuery(info.Mode, start)
	return res, info, tr, nil
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
