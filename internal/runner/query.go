package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
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
	// (DESIGN.md §10); Digest is the segment content digest when Dataset
	// names a stored graph (DESIGN.md §14), so its results are addressed by
	// the exact bytes on disk rather than by a mutable name; KernelV is the
	// kernel's descriptor version, so a semantics bump re-addresses results.
	// All three are authoritative: RunQueryInfo overwrites them before keying
	// the cache, so callers cannot usefully set them; they are exported only
	// so the content hash covers them.
	Version uint64
	Digest  string
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
// graph — canonicalFor does it before keying. An unregistered kernel name
// canonicalizes shape-only; RunQueryInfo rejects it before keying.
func (q Query) canonical() Query {
	q, _ = q.canon()
	return q
}

// canonicalFor is canonical for a graph of v vertices — the form the query
// cache is keyed with: for kernels whose descriptor declares a vertex source
// (and unregistered names), any Src at or beyond v also collapses to -1, the
// highest-out-degree default, exactly as core.Run treats Config.Src.
func (q Query) canonicalFor(v uint32) Query {
	q, role := q.canon()
	if q.Src >= int64(v) && role == algorithms.SourceVertex {
		q.Src = -1
	}
	return q
}

// canon is canonical plus the kernel's source role, from one registry lookup.
func (q Query) canon() (Query, algorithms.SourceRole) {
	if q.Src < 0 {
		q.Src = -1
	}
	k, err := algorithms.New(q.Kernel)
	if err != nil {
		q.KernelV = 0
		if q.MaxIters <= 0 {
			q.MaxIters = engine.DefaultMaxIters
		}
		return q, algorithms.SourceVertex
	}
	d := k.Descriptor()
	q.KernelV = d.Version
	if d.Source == algorithms.SourceIgnored {
		q.Src = -1
	}
	q.MaxIters = algorithms.EffectiveMaxIters(d, q.MaxIters, engine.DefaultMaxIters)
	return q, d.Source
}

// Key returns the query's canonical content hash (without the graph-aware
// Src collapsing of canonicalFor). Queries and simulation jobs live in
// separate cache namespaces, so their keys cannot collide.
func (q Query) Key() string { return contentKey(q.canonical()) }

// QueryInfo describes how RunQueryInfo served a query.
type QueryInfo struct {
	// Key is the versioned content address the result is cached under.
	Key string
	// Version is the graph version the result was computed on.
	Version uint64
	// Vertices is the vertex count of the graph the dataset name resolved
	// to (fixed across updates).
	Vertices uint32
	// Edges is the graph's edge count at that version — snapshotted with
	// the execution, so it stays consistent with Version and the result
	// even when updates race the query.
	Edges uint64
	// Mode records the serving path: "cached" (runner query cache or the
	// dynamic engine's fixed-point memo), "wait" (the result of an identical
	// query in flight), "engine" (static parallel engine), "incremental"
	// (repair) or "full" (full run at the updated version, on the engine
	// carried to it or rebuilt after a compaction). On failure it names the
	// path that failed.
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
	graph   *graphEntry
	version uint64
	edges   uint64

	kernel  string
	metrics *runnerMetrics
	// rank is the longest ranking of res.Prop computed so far. It lives and
	// dies with the entry and is bounded by the k its callers ask for —
	// piccolo-serve caps k at 1000, 16 KB beside a property vector of 8 bytes
	// per vertex, so bytes leaves it out.
	rank atomic.Pointer[ranking]
}

// queryCacheBudget bounds the bytes of the query cache's stored results. A
// distinct query pins a V-sized property vector, so without a bound the
// cache grows with every source a client names; figure suites re-read
// every simulation result, so the simulation cache keeps them all.
const queryCacheBudget = 64 << 20

// bytes is what the entry counts against queryCacheBudget: its property
// vector, 8 bytes a vertex.
func (e *queryEntry) bytes() uint64 { return 8 * uint64(len(e.res.Prop)) }

// ranking is an immutable top-k of one result: the first min(k, rankable
// vertices) entries of the result's total order.
type ranking struct {
	k   int
	top []engine.VertexScore
}

func (r *Runner) newQueryEntry(q Query, e *graphEntry, res *algorithms.ReferenceResult, version, edges uint64) *queryEntry {
	return &queryEntry{res: res, graph: e, version: version, edges: edges, kernel: q.Kernel, metrics: r.metrics}
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

// resolve decides once which graph q names and stamps q with everything its
// content address takes from that graph. A stored segment shadows a generator
// dataset of the same name; it is read-only, so it is keyed by its digest at
// version 0. A generator graph is keyed by its update version. q comes back
// canonical for the graph's vertex count.
func (r *Runner) resolve(q *Query) (*graphEntry, error) {
	if _, err := algorithms.New(q.Kernel); err != nil {
		return nil, &InvalidError{err}
	}
	q.Version, q.Digest = 0, ""
	e := r.lookup(graphKey{name: q.Dataset, stored: true})
	if e != nil {
		q.Digest = e.seg.Digest()
	} else {
		var err error
		if e, err = r.generator(q.Dataset, q.Scale); err != nil {
			return nil, err
		}
		q.Version = e.version()
	}
	*q = q.canonicalFor(e.store().NumVertices())
	return e, nil
}

// RunQueryInfo executes one query through the query cache and says how it
// was served: a memoized result returns immediately, a duplicate of an
// in-flight query waits for it, and a fresh query runs on the graph's engine
// (execQuery). The QueryInfo carries the versioned cache key, the graph
// version and shape the result reflects, the serving path (the query is
// counted under it), and the result's ranking (QueryInfo.TopK). An unknown
// kernel or dataset is an *InvalidError, returned before any graph is built
// or the cache is keyed.
//
// Cancellation is cooperative end to end: the context is honored while
// queuing for a worker slot, while waiting on an identical in-flight
// query, and — through engine.RunCtx / stream.QueryCtx — at every
// superstep or repair-round boundary of the execution itself. On
// cancellation the error is ctx.Err() and the returned result, when
// non-nil, carries partial-progress stats only (Iterations/EdgeVisits with
// nil Prop — piccolo-serve surfaces them in its 504 body). A canceled
// execution stores nothing, and single-flight waiters never inherit a
// leader's context error: they retry the lookup with their own budget.
//
// A non-nil trace argument (only the first is read) selects the debugging path:
// the execution records its spans there — per-superstep engine spans, or one
// repair span for an incremental serve (DESIGN.md §11) — and nothing is
// looked up, waited for or stored, since a cached result has no execution to
// trace.
func (r *Runner) RunQueryInfo(ctx context.Context, q Query, tr ...*obs.Trace) (*algorithms.ReferenceResult, QueryInfo, error) {
	var trace *obs.Trace
	if len(tr) > 0 {
		trace = tr[0]
	}
	start := time.Now()
	e, err := r.resolve(&q)
	if err != nil {
		r.metrics.observeQuery(outcome("", err), start)
		return nil, QueryInfo{}, err
	}
	key := contentKey(q)
	mode, kept := "", false
	exec := func() (*queryEntry, bool, error) {
		entry, m, err := r.execQuery(ctx, q, e, trace)
		// A dynamic run may land on a newer version than its key (an update
		// raced the query): it is served, never stored under the older key.
		mode, kept = m, err == nil && entry.version == q.Version
		return entry, kept, err
	}
	var entry *queryEntry
	if trace != nil {
		entry, _, err = exec()
	} else {
		var how string
		entry, how, err = r.queries.do(ctx, key, exec)
		switch how {
		case "hit":
			mode = "cached"
		case "wait":
			mode = "wait"
		}
		// An update that moved the graph on before the result was stored
		// could not drop it, so the leader checks the version after storing.
		if kept {
			if v := e.version(); v != q.Version {
				r.dropStale(e, v)
			}
		}
	}
	info := QueryInfo{Key: key, Vertices: e.store().NumVertices(), Mode: mode}
	var res *algorithms.ReferenceResult
	if entry != nil {
		res = entry.res
	}
	if err == nil {
		info.Version, info.Edges, info.entry = entry.version, entry.edges, entry
	}
	r.metrics.observeQuery(outcome(mode, err), start)
	return res, info, err
}

// execQuery runs q — canonical and stamped by resolve — on the graph's
// static engine while it has one, or on its DynamicEngine once promoted (even
// when q was resolved before the promotion: the static engine is gone). The
// entry carries the version and edge count the run actually saw (an update
// may land between resolve and the dynamic engine's lock), and mode names the
// arm that ran, on failure too.
//
// Both arms queue only for the query's mandatory worker slot, and run at the
// width the pool gives them (slotPool), checking cancellation at every
// superstep or repair-round boundary. A static engine is a shared read-only
// index, so queries on one graph run side by side; a DynamicEngine
// serializes its queries and updates on its own lock, since a repair mutates
// its memoized fixed point. A non-nil tr records this execution's spans.
//
// Panics are converted to errors for the same reason as in exec. The engine
// stays: a panicking run's scratch state is dropped by the engine itself, and
// its index was complete before any run.
func (r *Runner) execQuery(ctx context.Context, q Query, e *graphEntry, tr *obs.Trace) (entry *queryEntry, mode string, err error) {
	defer func() {
		if p := recover(); p != nil {
			entry, err = nil, fmt.Errorf("runner: query %s on %s panicked: %v",
				q.Kernel, q.Dataset, p)
		}
	}()
	eng, d := r.engines(e)
	if d != nil {
		s, err := r.querySlot(ctx)
		if err != nil {
			return nil, "", err
		}
		defer s.release()
		res, info, err := d.QueryCtx(ctx, q.Kernel, q.Src, q.MaxIters, engine.RunOptions{Width: s.width, Trace: tr})
		return r.newQueryEntry(q, e, res, info.Version, info.Edges), info.Mode, err
	}
	k, err := algorithms.New(q.Kernel)
	if err != nil {
		return nil, "engine", err
	}
	st := e.store()
	src := algorithms.ResolveSource(k.Descriptor(), q.Src, st.NumVertices(), func() uint32 {
		s, _ := graph.HighestDegreeVertexStore(st)
		return s
	})
	s, err := r.querySlot(ctx)
	if err != nil {
		return nil, "engine", err
	}
	defer s.release()
	res, err := eng.RunCtx(ctx, k, src, q.MaxIters, engine.RunOptions{Width: s.width, Trace: tr})
	return r.newQueryEntry(q, e, res, 0, st.NumEdges()), "engine", err
}

// querySlot acquires a query's mandatory worker slot, recording how long
// the query queued for it (piccolo_query_queue_wait_seconds).
func (r *Runner) querySlot(ctx context.Context) (*slots, error) {
	start := time.Now()
	s, err := r.slots.acquire(ctx)
	r.metrics.queueWait.Observe(time.Since(start).Nanoseconds())
	return s, err
}

// QueryStats returns a snapshot of the query cache's counters (simulation
// jobs are counted separately by Stats).
func (r *Runner) QueryStats() Stats { return r.queries.stats() }
