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
	"sync/atomic"
	"time"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/core"
	"piccolo/internal/dram"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
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
// dataset identity and every sweep-relevant Config field (cache.go) of the
// job's graph-free canonical form. Equal keys ⇒ identical simulations; Run
// also collapses a source vertex beyond the graph, which Key cannot see.
func (j Job) Key() string { return jobKey(j.canon()) }

// defaultMem is the memory a zero core.Config.Mem selects in core.Run.
var defaultMem = dram.DDR4(16)

// canon collapses what core.Run reads as its default onto one spelling: the
// spelled-out default memory onto the zero value, a negative source onto -1,
// and any source of a kernel that ignores it onto -1 (as Query.canon does). A
// job with the zero Mem and Src -1 is left as it is, so its key does not move.
func (j Job) canon() Job {
	if j.Config.Mem == defaultMem {
		j.Config.Mem = dram.Config{}
	}
	j.Config.Src = max(j.Config.Src, -1)
	if k, err := algorithms.New(j.Config.Kernel); err == nil && k.Descriptor().Source == algorithms.SourceIgnored {
		j.Config.Src = -1
	}
	return j
}

// maxBanks caps a job's channels × ranks × banks: the DRAM model allocates
// per bank, so an unbounded geometry lets one request ask for gigabytes.
// Every preset and every Fig. 16 point has at most 128 banks.
const maxBanks = 1024

// prepare checks what job names — a generator dataset, a registered kernel, a
// cache design whose fill size suits the system's miss path (§V), a memory of
// at most maxBanks banks, each refusal an *InvalidError — and returns the form
// Run keys and executes: canon, plus a vertex source at or beyond V collapsed
// to -1 as core.Run reads it, lest a client looping over src values mint
// unbounded entries for one simulation.
func (r *Runner) prepare(job Job) (Job, error) {
	if _, err := graph.ByName(job.Dataset); err != nil {
		return job, &InvalidError{err}
	}
	k, err := algorithms.New(job.Config.Kernel)
	if err != nil {
		return job, &InvalidError{err}
	}
	if d := job.Config.CacheDesign; d != "" {
		if err := accel.CheckCacheDesign(job.Config.System, d); err != nil {
			return job, &InvalidError{err}
		}
	}
	if m := job.Config.Mem; m.Channels > maxBanks || m.Ranks > maxBanks || m.Banks > maxBanks ||
		m.Channels*m.Ranks*m.Banks > maxBanks { // each factor checked first: the product must not overflow
		return job, &InvalidError{fmt.Errorf("runner: memory %q has %d channels × %d ranks × %d banks, above the %d-bank cap",
			m.Name, m.Channels, m.Ranks, m.Banks, maxBanks)}
	}
	job = job.canon()
	if k.Descriptor().Source == algorithms.SourceVertex && job.Config.Src >= 0 {
		g, err := r.Graph(job.Dataset, job.Config.Scale)
		if err != nil {
			return job, err
		}
		if job.Config.Src >= int64(g.V) {
			job.Config.Src = -1
		}
	}
	return job, nil
}

// InvalidError marks a failure as the caller's — an unknown dataset or
// kernel, a cache design the system cannot use, a memory over maxBanks, an
// update to a stored graph, a batch the graph refuses — rather than the
// server's. Its message is the cause's, and it unwraps to the cause, so
// errors.As still finds a typed cause such as *algorithms.UnknownKernelError.
type InvalidError struct{ Err error }

func (e *InvalidError) Error() string { return e.Err.Error() }
func (e *InvalidError) Unwrap() error { return e.Err }

// Stats reports the cache effectiveness counters. Hits counts submissions
// served without executing a simulation (cached results and waits on an
// identical in-flight job); Misses counts simulations actually executed;
// Invalidated counts stored entries dropped by targeted invalidation
// (ApplyUpdates evicting the updated graph's query results); Evicted counts
// stored entries dropped to keep a budgeted cache within its budget, and
// Bytes is what its stored entries count against it (the query cache's
// property vectors; always 0 for the unbudgeted simulation cache).
type Stats struct {
	Hits        uint64
	Misses      uint64
	Invalidated uint64
	Evicted     uint64
	Bytes       uint64
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
	// graphs holds one entry per graph, guarded by mu (graphEntry).
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	// walDir, when non-empty, is where every acknowledged update batch is
	// write-ahead-logged (EnableWAL, wal.go).
	walDir string
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
		results: newResultCache[*core.Result](0, nil),
		queries: newResultCache(queryCacheBudget, (*queryEntry).bytes),
		graphs:  map[graphKey]*graphEntry{},
	}
	r.metrics = newRunnerMetrics(r)
	return r
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the cache counters.
func (r *Runner) Stats() Stats { return r.results.stats() }

// Run executes one job through the cache: a memoized result returns
// immediately, a duplicate of an in-flight job waits for it, and a fresh
// job occupies a worker slot. Run may be called from any number of
// goroutines; the pool bounds only the simulations themselves.
//
// The job is validated before anything is built or keyed; a rejection is an
// *InvalidError. The context covers the queue, not the simulation: it is
// honored while waiting for a worker slot or an identical in-flight job, but
// a started simulation runs to completion (core.Run, unlike an engine query,
// has no superstep boundaries to check). A waiter never inherits its leader's
// context error, so one caller's deadline cannot fail an identical request
// that still has budget: it retries as a potential leader (resultCache.do).
func (r *Runner) Run(ctx context.Context, job Job) (*core.Result, error) {
	start := time.Now()
	job, err := r.prepare(job)
	if err != nil {
		r.metrics.observeRun(outcome("", err), start)
		return nil, err
	}
	return r.run(ctx, job, start)
}

// run is Run on a prepared job, counted from start.
func (r *Runner) run(ctx context.Context, job Job, start time.Time) (*core.Result, error) {
	res, how, err := r.results.do(ctx, jobKey(job), func() (*core.Result, bool, error) {
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
// succeeded, "canceled" when its context ended, "invalid" when the caller
// was at fault, "error" otherwise — a waiter handed its leader's failure
// included.
func outcome(label string, err error) string {
	switch {
	case err == nil:
		return label
	case ctxErr(err):
		return "canceled"
	case errors.As(err, new(*InvalidError)):
		return "invalid"
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
// against the cache) are executed once. Every job is validated before any
// starts: an invalid one fails the sweep with no results. Each jobs[i] is
// rewritten in place to the form it is keyed by, so jobs[i].Key() names
// results[i]'s cache entry. A canceled context stops queued jobs (running
// simulations finish); the first error aborts nothing else, but Sweep reports
// it; results[i] is nil exactly when jobs[i] failed.
func (r *Runner) Sweep(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	start := time.Now()
	for i := range jobs {
		var err error
		if jobs[i], err = r.prepare(jobs[i]); err != nil {
			r.metrics.observeRun(outcome("", err), start)
			return nil, sweepErr(i, jobs[i], err)
		}
	}
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.run(ctx, jobs[i], time.Now())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, sweepErr(i, jobs[i], err)
		}
	}
	return results, nil
}

// sweepErr names a sweep's failed job by its index.
func sweepErr(i int, j Job, err error) error {
	return fmt.Errorf("runner: job %d (%s %s on %s): %w", i, j.Config.System, j.Config.Kernel, j.Dataset, err)
}

// Graph returns the dataset proxy for (name, scale), built once on first use
// (generator) and shared read-only across concurrent simulations.
func (r *Runner) Graph(name string, sc graph.Scale) (*graph.CSR, error) {
	e, err := r.generator(name, sc)
	if err != nil {
		return nil, err
	}
	return e.g, nil
}

// The graph registry: everything the runner holds for one graph lives in one
// graphEntry in Runner.graphs. Lock order is Runner.mu, then an entry's mu,
// then its walState's. Queries and updates hold Runner.mu only to find an
// entry, and an entry's mu across nothing longer than the build of its static
// engine or the creation of its log.

// graphKey names one graph: a generator dataset at a scale, or a stored
// segment by name (its scale is meaningless and left zero). A struct, not a
// formatted string: every query looks one up, cache hits included.
type graphKey struct {
	name   string
	scale  graph.Scale
	stored bool
}

// graphEntry is one graph and what the runner derived from it.
type graphEntry struct {
	// The graph: a generator proxy built once by build, or an opened segment.
	// Neither changes after it is set.
	build sync.Once
	g     *graph.CSR
	seg   *graph.Segment

	// dyn is the graph's DynamicEngine once promoted (first update or WAL
	// replay). It is stored under mu and read without it.
	dyn atomic.Pointer[stream.DynamicEngine]

	mu sync.Mutex
	// static is the graph's static engine, built by its first query, until
	// the graph is promoted: promotion drops it, so no engine of a
	// superseded version stays resident.
	static *engine.Engine
	wal    *walState // the graph's log, once it has one
}

// store is the graph as the engines read it.
func (e *graphEntry) store() graph.GraphStore {
	if e.seg != nil {
		return e.seg
	}
	return graph.AsStore(e.g)
}

// engines returns the graph's DynamicEngine once promoted, and its static
// engine, built on first use, until then.
func (r *Runner) engines(e *graphEntry) (*engine.Engine, *stream.DynamicEngine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.dyn.Load(); d != nil {
		return nil, d
	}
	if e.static == nil {
		e.static = engine.NewFromStore(e.store(), engine.Config{Workers: r.workers})
	}
	return e.static, nil
}

// lookup returns the entry under k, or nil.
func (r *Runner) lookup(k graphKey) *graphEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.graphs[k]
}

// generator returns the entry of generator dataset name at sc, building its
// graph on first use: concurrent first users wait for its one build and then
// share it read-only. An unknown name is an *InvalidError and leaves no entry
// behind. A build is timed into piccolo_graph_build_seconds; a hit records
// nothing.
func (r *Runner) generator(name string, sc graph.Scale) (*graphEntry, error) {
	d, err := graph.ByName(name)
	if err != nil {
		return nil, &InvalidError{err}
	}
	k := graphKey{name: name, scale: sc}
	r.mu.Lock()
	e := r.graphs[k]
	if e == nil {
		e = &graphEntry{}
		r.graphs[k] = e
	}
	r.mu.Unlock()
	e.build.Do(func() {
		start := time.Now()
		e.g = d.Build(sc)
		r.metrics.graphBuildSeconds.Observe(time.Since(start).Nanoseconds())
	})
	return e, nil
}

// version is the graph's current version: 0 until its first update, and
// always for a stored graph.
func (e *graphEntry) version() uint64 {
	if d := e.dyn.Load(); d != nil {
		return d.Version()
	}
	return 0
}

// dropStale invalidates e's stored query results computed before version ver.
func (r *Runner) dropStale(e *graphEntry, ver uint64) {
	r.queries.invalidate(func(q *queryEntry) bool { return q.graph == e && q.version < ver })
}
