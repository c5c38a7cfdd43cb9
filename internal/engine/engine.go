// Package engine is the sharded parallel execution engine: a frontier-based
// vertex-centric executor for the registered kernels that produces results
// bit-identical to algorithms.RunReference at any worker count.
//
// Parallelism comes from partitioning *destination* vertices into shards
// (shard.go): every destination is owned by exactly one shard, so the
// per-vertex accumulator Vtemp[v] is written by a single goroutine, and each
// shard consumes contributions in ascending (source, edge-index) order —
// exactly the fold order of the reference executor's serial loop. Because
// the Reduce fold over each vertex's contributions replays the reference
// order operation for operation, the output is bit-identical even for
// PageRank, whose float64 summation is not associative and therefore
// sensitive to merge order (DESIGN.md §9).
//
// Two iteration modes cover the paper's kernels. An AllActive (dense)
// iteration always pulls; a frontier (sparse) iteration picks a traversal
// direction (DESIGN.md §12, Beamer-style direction optimization):
//
//   - push (source-centric): the frontier's out-edges drive the work. Each
//     phase goroutine owns a run of whole shards and folds, from every
//     frontier row in ascending source order, the run of the row that lands
//     in its destination range straight into Vtemp; rows ascend by
//     destination, so a gallop finds the run. The rows are the graph's own
//     (rows.go), not a copy.
//   - pull (destination-centric): each shard folds its owned destinations'
//     in-edges from a CSC view (graph.BuildCSC), restricted to the
//     frontier's out-edges — by a per-source array in which only frontier
//     vertices carry their property (the masked fold of the whole-row
//     kernels), or by testing sources against a bitmap frontier. In-edge rows are stored in
//     ascending (source, edge-index) order and cache-blocked into
//     source-range tiles sized to L2 (graph.PullTileWidth), so the random
//     per-source reads stay resident while a tile's edges stream. Folding
//     tiles in ascending order replays the reference fold order exactly, so
//     pull is bit-identical to push for every kernel — including PageRank's
//     non-associative float64 sums.
//
// The per-iteration direction is one stateless rule (autoPull in run.go):
// pull iff gain·m_f > E, with the gain the registered pull loop declares;
// tests pin it through RunOptions.forceStrategy. The choice affects
// constants only, never result bits.
//
// An Engine is the immutable, shareable half of an execution — the index:
// the shard bounds, the tiled CSC (the pull index) and the forward rows in
// 64-source chunks that alias the CSR. New builds all of it before any run,
// through one transpose that yields both the bounds and the pull index; the
// engine of the next graph version (Advance) carries the pull index and the
// row chunks forward, so it reads no graph at all.
// Everything a run mutates — Vtemp, the frontier and its bitmap, the current
// phase width — lives in a runState (run.go) that a run takes from a bounded
// free list on the engine and hands back when it returns. Run and RunCtx are therefore safe to call from any
// number of goroutines on one Engine: concurrent runs read the index and
// write disjoint run states, so each performs exactly the folds it would
// perform alone.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// DefaultMaxIters is the iteration cap applied by callers that pass no
// explicit bound (runner and stream queries). It is far above the
// convergence point of every kernel at the reproduction's scales; it exists
// so a pathological input cannot spin forever.
const DefaultMaxIters = 10000

// direction is a sparse superstep's traversal strategy, as the
// RunOptions.forceStrategy test hook pins it. Every choice is
// bit-identical; only the constants differ.
type direction int

const (
	// dirAuto defers to the direction rule (autoPull).
	dirAuto direction = iota
	// dirPush forces source-centric traversal (a walk of the frontier rows).
	dirPush
	// dirPull forces destination-centric (CSC) traversal.
	dirPull
)

// String returns the benchmark/trace spelling of the direction.
func (d direction) String() string {
	switch d {
	case dirPush:
		return "push"
	case dirPull:
		return "pull"
	}
	return "auto"
}

// Config tunes an Engine. The zero value selects GOMAXPROCS workers.
type Config struct {
	// Workers is the default number of goroutines per parallel phase, the
	// shard-count default's input, and the bound on pooled run states; <= 0
	// selects runtime.GOMAXPROCS(0), and phase widths above
	// min(GOMAXPROCS, NumCPU) are clamped to it (goroutines beyond the
	// processors that can run them cannot speed up a CPU-bound phase).
	// Results are bit-identical at every value.
	Workers int

	// shards is the number of destination partitions; 0 selects
	// 2 × Workers (capped), which over-decomposes the pull and apply phases
	// a little for load balance on skewed in-degree distributions.
	// Only tests set it; results are bit-identical at every value.
	shards int
	// tileSourceWidth is the pull-mode source-range tile width in
	// vertices; 0 auto-sizes to the L2 budget (graph.PullTileWidth), and
	// values above 65536 are capped there (tiles store sources as 16-bit
	// offsets). Only tests set it; results are bit-identical at every value.
	tileSourceWidth uint32
}

// RunOptions are the per-run settings of one RunCtx call. They belong to
// the run, not the engine, so concurrent runs on one Engine cannot see each
// other's; none of them can change a result bit.
type RunOptions struct {
	// Width, when non-nil, is called at every superstep boundary — the
	// cancellation point, between phase barriers, on the goroutine that
	// called RunCtx — and returns the phase width for the next superstep
	// (clamped like Config.Workers); nil runs at the engine's Config.Workers.
	// It is how a scheduler that shares cores between runs resizes one
	// mid-flight (internal/runner hands it the run's worker-slot count).
	Width func() int
	// Trace, when non-nil, receives one "superstep" span per iteration
	// (obs.Trace; schema in DESIGN.md §11). Tracing reads the phase
	// barriers' timestamps; it does not participate in the phases.
	Trace *obs.Trace

	// forceStrategy, when non-nil, overrides each sparse superstep's
	// direction choice (dirAuto defers to the rule); dense supersteps
	// always pull. The one hook through which tests and microbenchmarks pin
	// a direction, for a whole run or switching mid-run.
	forceStrategy func(iter int) direction
}

// Result is the functional output, structurally identical to the reference
// executor's so differential tests compare the two directly.
type Result = algorithms.ReferenceResult

// Engine is the shared, read-only index of one graph version at a fixed
// sharding. Nothing in it changes after construction; the next version's
// engine is a new value derived from this one (Advance), never an edit of it.
type Engine struct {
	// v and nEdges are the graph's shape.
	v      uint32
	nEdges uint64
	// workers is the default phase width of a run (RunOptions.Width
	// overrides it superstep by superstep).
	workers int
	shards  int

	// bounds[s]..bounds[s+1] is the destination range owned by shard s.
	bounds []uint32

	// pull holds the destination-sharded, source-tiled CSC views (pull.go),
	// built by New or carried over from the previous graph version by
	// Advance.
	pull      *pullIndex
	tileWidth uint32

	// rows holds the forward rows the push phase reads, in 64-source chunks
	// that alias the CSR until Advance rewrites them (rows.go).
	rows []rowChunk
	// decoded is the size of the CSR NewFromStore decoded from a store that
	// is not one (0 when the rows alias the caller's CSR), and bytes the
	// total IndexBytes reports.
	decoded, bytes uint64

	// free is the run-state free list: a run takes a state if one is
	// parked and allocates otherwise, and parks it again on return unless
	// the list is full, so at most cap(free) states outlive their run. An
	// engine derived by Advance shares its predecessor's list.
	free chan *runState
}

// checkEdges panics, before anything is allocated for them, when n edges
// would overflow the tiles' 32-bit edge counts and offsets.
func checkEdges(n uint64) {
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("engine: %d edges exceed the %d that 32-bit tile offsets can index", n, uint64(math.MaxUint32)))
	}
}

// New builds an engine for an in-RAM CSR: one O(V+E) transpose yields the
// shard bounds and the tiled CSC, and the push phase reads g's own rows, which
// must ascend by destination (CSR.Validate) and must not be mutated while the
// engine is in use.
func New(g *graph.CSR, cfg Config) *Engine {
	return NewFromStore(graph.AsStore(g), cfg)
}

// NewFromStore builds an engine over any graph store — an in-RAM CSR, whose
// rows it reads in place, or an opened segment (graph.OpenSegment), which it
// decodes once into a CSR of its own that the transpose then reads; the store
// is not read again. Results are bit-identical across stores of the same
// graph at every configuration. It panics on a store of more than
// math.MaxUint32 edges.
func NewFromStore(st graph.GraphStore, cfg Config) *Engine {
	nEdges := st.NumEdges()
	checkEdges(nEdges)
	w := clampWorkers(cfg.Workers)
	v := st.NumVertices()
	p := cfg.shards
	if p <= 0 {
		p = 2 * w
	}
	p = max(min(p, maxShards, int(v)), 1)
	e := &Engine{v: v, nEdges: nEdges, workers: w, shards: p}
	e.tileWidth = cfg.tileSourceWidth
	if e.tileWidth == 0 {
		e.tileWidth = graph.PullTileWidth(v)
	}
	e.tileWidth = min(e.tileWidth, maxTileWidth)
	// One parked state per run the owner can have in flight: a scheduler
	// that admits Workers runs at width 1 (internal/runner) reuses every
	// state; a wider burst allocates and lets the GC have the surplus.
	bound := cfg.Workers
	if bound <= 0 {
		bound = runtime.GOMAXPROCS(0)
	}
	e.free = make(chan *runState, bound)
	g, copied := graph.LoadStore(st)
	if copied {
		e.decoded = 8*uint64(len(g.RowPtr)) + 5*g.E()
	}
	csc := graph.BuildCSC(g)
	e.partition(csc.ColPtr)
	e.pull = e.buildPull(csc, w)
	e.rows = aliasRows(g)
	e.bytes = e.countBytes()
	return e
}

// Advance returns the engine of the next graph version, whose graph is this
// engine's plus the inserted edges, and reports how many pull tiles it
// rewrote. The next engine shares the configuration, the shard bounds, every
// pull tile no inserted edge lands in and every row chunk no inserted edge's
// source lands in, so deriving it costs O(V + touched tiles and chunks)
// instead of New's O(V+E). It reads no graph: its index equals a from-scratch
// build on this engine's graph with each inserted edge placed in its source's
// row after every existing edge to the same destination, in the order given
// (what stream.Overlay materializes). Keeping the bounds lets shard balance
// drift by the inserted in-degree, so a caller re-partitions with New now and
// then. With nothing inserted Advance returns the receiver. It panics, like
// NewFromStore, when the next version would exceed math.MaxUint32 edges.
//
// The receiver is never written, and runs in flight on it finish unaffected.
// The two engines share one run-state free list (states are sized by vertex
// and shard count, which do not change, and belong to whichever engine last
// took them), so a version step allocates no per-vertex scratch.
func (e *Engine) Advance(inserted []graph.Edge) (next *Engine, touchedTiles int) {
	checkEdges(e.nEdges + uint64(len(inserted)))
	if len(inserted) == 0 {
		return e, 0
	}
	next = &Engine{
		v: e.v, nEdges: e.nEdges + uint64(len(inserted)),
		workers: e.workers, shards: e.shards, bounds: e.bounds,
		tileWidth: e.tileWidth, free: e.free, decoded: e.decoded,
	}
	next.pull, touchedTiles = e.pull.carry(e.bounds, e.tileWidth, inserted)
	next.rows = carryRows(e.rows, inserted)
	next.bytes = next.countBytes()
	return next, touchedTiles
}

// maxCountedWidth is the widest phase width counted separately; wider
// supersteps fold into the last counter.
const maxCountedWidth = 64

// Package-wide run counters, exported for the observability layer (runner
// bridges them into /metrics, piccolo-serve surfaces them in /stats):
// supersteps by traversal direction and by phase width, and the number of
// runs executing right now. Global atomics rather than per-engine fields
// because a process hosts many engines (one per graph, plus the streaming
// fallbacks) and the operator questions — "which direction, and how wide,
// is the fleet actually running?" — are process-level ones. Updated once
// per superstep outside the parallel phases, so they cannot perturb
// determinism.
var (
	superstepsPush, superstepsPull atomic.Uint64
	superstepsAtWidth              [maxCountedWidth + 1]atomic.Uint64
	runsInflight                   atomic.Int64
)

// SuperstepCounts returns the process-wide superstep totals by direction.
func SuperstepCounts() (push, pull uint64) {
	return superstepsPush.Load(), superstepsPull.Load()
}

// WidthSupersteps returns the process-wide number of supersteps executed
// at phase width w; w = 64 reads "64 and wider", and widths outside
// [1, 64] read 0.
func WidthSupersteps(w int) uint64 {
	if w < 1 || w > maxCountedWidth {
		return 0
	}
	return superstepsAtWidth[w].Load()
}

// RunsInflight returns the number of runs currently inside RunCtx across
// every engine of the process.
func RunsInflight() int64 { return runsInflight.Load() }

// Workers returns the configured default phase width.
func (e *Engine) Workers() int { return e.workers }

// clampWorkers resolves a requested phase width: <= 0 selects GOMAXPROCS,
// and anything above min(GOMAXPROCS, NumCPU) is clamped down to it.
// Goroutines beyond the processors that can actually run them (GOMAXPROCS
// may be set above the hardware thread count) cannot speed up a CPU-bound
// phase — they only add scheduler churn, which is exactly the parallel-8
// anti-scaling the benchmark grid used to show. The clamp cannot change
// results: every width is bit-identical by construction.
func clampWorkers(w int) int {
	p := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < p {
		p = n
	}
	if w <= 0 || w > p {
		return p
	}
	return w
}

// Run executes the kernel from src until convergence or maxIters and
// returns properties, iteration count and edge visits bit-identical to
// algorithms.RunReference(g, k, src, maxIters).
func (e *Engine) Run(k algorithms.Kernel, src uint32, maxIters int) *Result {
	res, _ := e.RunCtx(context.Background(), k, src, maxIters, RunOptions{})
	return res
}

// RunCtx is Run with per-run options and cooperative cancellation: the
// context is checked once per superstep, at the iteration boundary, never
// mid-phase — so every parallel phase that started also finished and the
// run's scratch buffers are clean for whichever run takes them next. On
// cancellation it returns the context's error together with a
// partial-progress Result whose Iterations/EdgeVisits count the completed
// supersteps and whose Prop is nil (an unconverged property vector must
// never be observable — callers surface the stats, not the state). A run
// that reaches convergence before the boundary check observes the
// cancellation returns the full result and a nil error: cancellation yields
// either the context error or the bit-identical complete result, never a
// third state (cancel_test.go pins this at every boundary).
func (e *Engine) RunCtx(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts RunOptions) (*Result, error) {
	if e.v == 0 {
		// A 0-vertex graph has nothing to iterate; return the converged
		// empty result the reference executor produces (non-nil, zero-length
		// Prop) before touching any per-vertex state.
		return &Result{Prop: []uint64{}}, nil
	}
	runsInflight.Add(1)
	defer runsInflight.Add(-1)
	rs := e.takeState()
	res, err := rs.run(ctx, k, src, maxIters, opts)
	// Reached only when the run returned — complete, or canceled at a
	// superstep boundary — which is when every phase has reset its scratch.
	// A panic unwinds past this line, so a half-mutated state is dropped
	// with its run instead of poisoning the next one.
	e.parkState(rs)
	return res, err
}

// takeState returns a parked run state, or a fresh one when none is free.
// A parked state may last have run on another version of this engine
// (Advance shares the list), so taking it is what binds it.
func (e *Engine) takeState() *runState {
	select {
	case rs := <-e.free:
		rs.e = e
		return rs
	default:
		return newRunState(e)
	}
}

// parkState returns a clean run state to the free list, or drops it when
// the list already holds its bound.
func (e *Engine) parkState(rs *runState) {
	rs.opts = RunOptions{} // do not pin a finished run's trace or closures
	rs.e = nil             // nor, across Advance, a superseded version's index
	select {
	case e.free <- rs:
	default:
	}
}

// parallelDo runs fn(0..tasks-1) across width goroutines, pulling task
// indices from a shared atomic counter, and returns after every task
// completes (the WaitGroup is the phase barrier the determinism argument
// relies on).
func parallelDo(width, tasks int, fn func(int)) {
	if tasks <= 0 {
		return
	}
	w := min(width, tasks)
	if w <= 1 {
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1) - 1)
				if t >= tasks {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}
