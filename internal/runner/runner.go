// Package runner is the sweep-orchestration subsystem: it executes
// declarative simulation jobs across a bounded worker pool, deduplicating
// identical jobs through a thread-safe content-addressed result cache
// (DESIGN.md §7). The paper's evaluation is a large cross product —
// systems × kernels × datasets × tile-size candidates — whose cells are
// independent, deterministic simulations; the runner turns that cross
// product into a parallel, cache-shared batch while preserving the exact
// results and ordering of a sequential run.
//
// A Job is a dataset name plus a full core.Config. Two jobs with the same
// canonical content hash (see Job.Key) are the same simulation: only the
// first submission executes, concurrent duplicates wait on the in-flight
// call, and later submissions are served from the cache. Sweep returns
// results in submission order regardless of completion order, so
// aggregation code downstream is oblivious to the parallelism.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"piccolo/internal/core"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
)

// Job is one declarative unit of work: simulate Config on the named
// dataset proxy. The zero Config fields mean "paper default" exactly as in
// core.Run.
type Job struct {
	// Dataset names a Table II proxy (UU, TW, SW, FS, PP, WS26, ...); the
	// graph is built lazily at Config.Scale and shared read-only across
	// jobs.
	Dataset string
	Config  core.Config
}

// Key returns the job's canonical content hash: a SHA-256 over the
// dataset identity and every sweep-relevant Config field (cache.go). Equal
// keys ⇒ identical simulations.
func (j Job) Key() string { return jobKey(j) }

// Stats reports the cache effectiveness counters. Hits counts submissions
// served without executing a simulation (cached results and waits on an
// identical in-flight job); Misses counts simulations actually executed;
// Invalidated counts stored entries dropped by targeted invalidation
// (ApplyUpdates evicting the updated graph's query results).
type Stats struct {
	Hits        uint64
	Misses      uint64
	Invalidated uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 for an untouched runner.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Runner executes jobs on a bounded worker pool over a shared result
// cache. It is safe for concurrent use; a single Runner is meant to be
// shared across an entire process (figure suite, HTTP server) so that
// every consumer benefits from every other's results.
type Runner struct {
	workers int
	slots   *slotPool // bounds concurrently executing simulations and query phases
	results *resultCache[*core.Result]
	queries *resultCache[*queryEntry]
	graphs  memo[graphKey, *graph.CSR]
	// engines holds one static engine per graph (engineKey), so repeated
	// queries amortize the O(V+E) sharding pass and the lazily built dense
	// and pull views; an engine is a read-only index that any number of
	// queries run on at once.
	engines memo[engineKey, *engine.Engine]
	streams *streamCache
	// stored holds the mmap'd on-disk segments registered via OpenStored /
	// OpenGraphDir (stored.go); their names shadow generator datasets on
	// the query path.
	stored *storedRegistry
	// queryKeys maps each graph to the query-cache keys stored for it, so
	// ApplyUpdates can evict exactly the updated graph's entries.
	queryKeys queryKeyIndex
	// wal, when non-nil, write-ahead-logs every acknowledged update batch
	// (EnableWAL, wal.go).
	wal *walManager
	// metrics is the runner's obs registry plus pre-registered handles for
	// the per-request series (metrics.go); always non-nil.
	metrics *runnerMetrics
}

// New returns a runner executing at most workers simulations at once.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		workers: workers,
		slots:   newSlotPool(workers),
		results: newResultCache[*core.Result](),
		queries: newResultCache[*queryEntry](),
		streams: newStreamCache(),
		stored:  newStoredRegistry(),
	}
	r.metrics = newRunnerMetrics(r)
	return r
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the cache counters.
func (r *Runner) Stats() Stats { return r.results.stats() }

// ResetCache drops every memoized graph, result and query and zeroes the
// counters. In-flight jobs complete but their results are discarded.
// Streaming overlays are NOT reset: applied edge updates are graph state,
// not cached derived data — dropping them would silently rewind every
// updated graph to its base edge set.
func (r *Runner) ResetCache() {
	r.results.reset()
	r.queries.reset()
	r.graphs.reset()
	r.engines.reset()
	r.queryKeys.reset() // the entries it indexes are gone
}

// Run executes one job through the cache: a memoized result returns
// immediately, a duplicate of an in-flight job waits for it, and a fresh
// job occupies a worker slot. Run may be called from any number of
// goroutines; the pool bounds only the simulations themselves.
//
// The context covers the queue, not the simulation: cancellation is
// honored while waiting for a worker slot or for an identical in-flight
// job, but a simulation that has started runs to completion (core.Run has
// no superstep boundaries to check — unlike engine queries, which cancel
// cooperatively). A waiter whose leader failed with the *leader's* context
// error does not inherit it: it retries the lookup as a potential leader,
// so one caller's deadline can never poison an identical request that
// still has budget (resultCache.do).
func (r *Runner) Run(ctx context.Context, job Job) (*core.Result, error) {
	start := time.Now()
	res, how, err := r.results.do(ctx, job.Key(), func() (*core.Result, bool, error) {
		s, err := r.slots.acquire(ctx)
		if err != nil {
			return nil, false, err
		}
		defer s.release()
		res, err := r.exec(job)
		return res, true, err
	})
	r.metrics.observeRun(outcome(how, err), start)
	return res, err
}

// ctxErr reports whether err is (or wraps) a context cancellation or
// deadline expiry — the error class a single-flight waiter must not
// inherit from its leader.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// outcome is the metrics label of a finished submission: label when it
// succeeded, "canceled" when its context ended, "error" otherwise — a waiter
// handed its leader's failure included.
func outcome(label string, err error) string {
	switch {
	case err == nil:
		return label
	case ctxErr(err):
		return "canceled"
	}
	return "error"
}

// exec builds (or fetches) the graph and runs the simulation. A panic in
// the simulator (or graph builder) is converted into this job's error:
// letting it escape would kill the whole process off a worker goroutine,
// and — because complete would never run — leave every duplicate
// submission of the key blocked on the in-flight call forever.
func (r *Runner) exec(job Job) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("runner: %s %s on %s panicked: %v",
				job.Config.System, job.Config.Kernel, job.Dataset, p)
		}
	}()
	g, err := r.Graph(job.Dataset, job.Config.Scale)
	if err != nil {
		return nil, err
	}
	return core.Run(job.Config, g)
}

// Sweep executes every job, at most Workers() at a time, and returns
// results in submission order. Duplicate jobs within the batch (and
// against the cache) are executed once. A canceled context stops queued
// jobs from starting (running simulations finish); the first error aborts
// nothing else — every job still completes or fails — but Sweep reports
// it; results[i] is nil exactly when jobs[i] failed.
func (r *Runner) Sweep(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(ctx, jobs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("runner: job %d (%s %s on %s): %w",
				i, jobs[i].Config.System, jobs[i].Config.Kernel, jobs[i].Dataset, err)
		}
	}
	return results, nil
}

// Graph returns the memoized dataset proxy for (name, scale), building it
// on first use. Graphs are immutable after construction and shared
// read-only across concurrent simulations.
func (r *Runner) Graph(name string, sc graph.Scale) (*graph.CSR, error) {
	return r.graphs.get(graphKey{name, sc}, func() (*graph.CSR, error) {
		d, err := graph.ByName(name)
		if err != nil {
			return nil, err
		}
		return d.Build(sc), nil
	})
}
