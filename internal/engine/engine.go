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
// Two iteration modes cover the paper's kernels, and each iteration picks a
// traversal direction (DESIGN.md §12, Beamer-style direction optimization):
//
//   - push (source-centric): the frontier's out-edges drive the work.
//     On a CSR, whose rows cost nothing to fetch, thin frontiers
//     scatter-gather — contiguous frontier chunks materialize (dst,
//     contribution) pairs into per-(chunk, shard) buckets, merged per shard
//     in ascending chunk order — and fatter ones fold the
//     destination-sharded sub-CSRs directly. A store-backed engine folds the
//     sub-CSRs for every push superstep, so it reads its store only to build
//     its indexes: a thin frontier looks its vertices up in each shard's
//     source list, a fat one scans the lists against a bitmap frontier.
//   - pull (destination-centric): each shard folds its owned destinations'
//     in-edges from a CSC view (graph.BuildCSC), restricted to the frontier's
//     out-edges — by a per-source array in which only frontier vertices
//     carry their property (the masked fold of the whole-row kernels), or by
//     testing sources against a bitmap frontier. In-edge rows are stored in
//     ascending (source, edge-index) order and cache-blocked into
//     source-range tiles sized to L2 (graph.PullTileWidth), so the random
//     per-source reads stay resident while a tile's edges stream. Folding
//     tiles in ascending order replays the reference fold order exactly, so
//     pull is bit-identical to push for every kernel — including PageRank's
//     non-associative float64 sums.
//
// The per-iteration direction is chosen by a cost heuristic (autoPull in
// run.go) unless Config.Direction forces one; the choice affects constants
// only, never result bits.
//
// An Engine is the immutable, shareable half of an execution — the index:
// the store, the shard bounds and the lazily built dense sub-CSRs and tiled
// CSC. Everything a run mutates — Vtemp, the frontier and its bitmap, the
// scatter buckets, the direction-heuristic state, the current phase width —
// lives in a runState (run.go) that a run takes from a bounded free list on
// the engine and hands back when it returns. Run and RunCtx are therefore
// safe to call from any number of goroutines on one Engine: concurrent runs
// read the index and write disjoint run states, so each performs exactly
// the folds it would perform alone.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// DefaultMaxIters is the iteration cap applied by callers that pass no
// explicit bound (piccolo.RunKernel, runner queries). It is far above the
// convergence point of every kernel at the reproduction's scales; it exists
// so a pathological input cannot spin forever.
const DefaultMaxIters = 10000

// Direction selects the traversal strategy. Every choice is bit-identical;
// only the constants differ.
type Direction int

const (
	// DirAuto switches push↔pull per iteration with the cost heuristic
	// (the default).
	DirAuto Direction = iota
	// DirPush forces source-centric traversal (scatter-gather or a sub-CSR
	// walk) every iteration.
	DirPush
	// DirPull forces destination-centric (CSC) traversal every iteration.
	DirPull
)

// String returns the benchmark/trace spelling of the direction.
func (d Direction) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	}
	return "auto"
}

// Default Beamer switch parameters for pull loops that exit early
// (DESIGN.md §12): push→pull when the frontier's out-edge sum m_f satisfies
// m_f·Alpha > m_u (m_u = remaining in-edges estimate), pull→push when
// |frontier|·Beta < V. The values are Beamer's published defaults; they
// tune constants only, never bits.
const (
	defaultAlpha = 14
	defaultBeta  = 24
)

// Config tunes an Engine. The zero value selects GOMAXPROCS workers.
type Config struct {
	// Workers is the default number of goroutines per parallel phase, the
	// shard-count default's input, and the bound on pooled run states; <= 0
	// selects runtime.GOMAXPROCS(0), and phase widths above
	// min(GOMAXPROCS, NumCPU) are clamped to it (goroutines beyond the
	// processors that can run them cannot speed up a CPU-bound phase).
	// Results are bit-identical at every value.
	Workers int
	// Shards is the number of destination partitions; 0 selects
	// 2 × Workers (capped), which over-decomposes a little for load
	// balance on skewed in-degree distributions while keeping the
	// sub-CSR source lists (the streaming mode's fixed scan cost) small.
	// Results are bit-identical at every value.
	Shards int
	// Direction forces a traversal strategy; the zero value (DirAuto)
	// switches per iteration. Results are bit-identical at every value.
	Direction Direction
	// Alpha and Beta tune the auto-mode switch heuristic of early-exit
	// pull loops; <= 0 selects the Beamer defaults (14, 24). Results are
	// bit-identical at every value.
	Alpha, Beta int
	// TileSourceWidth is the pull-mode source-range tile width in
	// vertices; 0 auto-sizes to the L2 budget (graph.PullTileWidth), and
	// values above 65536 are capped there (tiles store sources as 16-bit
	// offsets). Results are bit-identical at every value.
	TileSourceWidth uint32
}

// RunOptions are the per-run settings of one RunCtx call. They belong to
// the run, not the engine, so concurrent runs on one Engine cannot see each
// other's; none of them can change a result bit.
type RunOptions struct {
	// Workers is the phase width of this run; <= 0 selects the engine's
	// Config.Workers. Clamped like Config.Workers.
	Workers int
	// Width, when non-nil, is called at every superstep boundary — the
	// cancellation point, between phase barriers, on the goroutine that
	// called RunCtx — and returns the phase width for the next superstep
	// (clamped like Workers, which it overrides). It is how a scheduler
	// that shares cores between runs resizes one mid-flight
	// (internal/runner hands it the run's worker-slot count).
	Width func() int
	// Trace, when non-nil, receives one "superstep" span per iteration
	// (obs.Trace; schema in DESIGN.md §11). Tracing reads the phase
	// barriers' timestamps; it does not participate in the phases.
	Trace *obs.Trace

	// forceStrategy, when non-nil, overrides the per-iteration direction
	// choice (DirAuto defers to the normal logic). Test hook for the
	// forced mid-run push↔pull switch suite.
	forceStrategy func(iter int) Direction
	// forceFrontierWalk and forceApplyScan, when non-nil, pin the stream
	// path's walk (frontier walk vs source walk) and the apply phase's
	// (ordered range walk vs walk-and-sort) for every shard and superstep
	// instead of their size rules. Test hooks for the differential suites
	// that drive both sides of each rule over the same frontiers.
	forceFrontierWalk, forceApplyScan *bool
}

// Result is the functional output, structurally identical to the reference
// executor's so differential tests compare the two directly.
type Result = algorithms.ReferenceResult

// Engine is the shared, read-only index of one graph version at a fixed
// sharding. Nothing in it changes after construction except the two lazily
// built views, each published once; the next version's engine is a new
// value derived from this one (Advance, Bind), never an edit of it.
type Engine struct {
	// store is the shard source: the adjacency the engine builds its shard
	// views from, and reads for nothing else. It is either an in-RAM CSR
	// (New) or an on-disk compressed segment (NewFromStore over
	// graph.OpenSegment); both deliver rows in the ascending (source,
	// edge-index) order the determinism argument pins, so the views come out
	// identical.
	store graph.GraphStore
	// g is the wrapped CSR when store is CSR-backed, nil otherwise. Its rows
	// are slices of resident arrays, so thin frontiers scatter straight out
	// of it; without it every push superstep folds the sub-CSRs
	// (streamWorthwhile).
	g *graph.CSR
	// v and nEdges memoize the store's shape.
	v      uint32
	nEdges uint64
	// workers is the default phase width of a run (RunOptions overrides it
	// per run).
	workers int
	shards  int

	// bounds[s]..bounds[s+1] is the destination range owned by shard s;
	// owner[v] is the shard owning destination v.
	bounds []uint32
	owner  []uint16

	// dense holds the destination-sharded sub-CSRs, built by the first run
	// that streams them (an AllActive push run, a fat sparse frontier, or any
	// push superstep of a store-backed engine).
	// The pointer is atomic because streamWorthwhile peeks at it without
	// going through the Once.
	dense     atomic.Pointer[denseIndex]
	denseOnce sync.Once

	// pull holds the destination-sharded, source-tiled CSC views, built by
	// the first pull iteration of any run (pull.go) or carried over from the
	// previous graph version (Advance stores it before the engine is handed
	// out). Atomic for the same reason as dense: pullViews and Advance read
	// it without going through the Once.
	pull      atomic.Pointer[pullIndex]
	pullOnce  sync.Once
	tileWidth uint32

	// direction-optimization config.
	dir         Direction
	alpha, beta uint64

	// free is the run-state free list: a run takes a state if one is
	// parked and allocates otherwise, and parks it again on return unless
	// the list is full, so at most cap(free) states outlive their run. An
	// engine derived by Advance shares its predecessor's list.
	free chan *runState
}

// New builds an engine for an in-RAM CSR. The sharding pass is O(V+E);
// dense sub-CSRs are built lazily on the first AllActive kernel run.
func New(g *graph.CSR, cfg Config) *Engine {
	return NewFromStore(graph.AsStore(g), cfg)
}

// NewFromStore builds an engine over any graph store — an in-RAM CSR or an
// opened segment (graph.OpenSegment), whose adjacency streams from the mmap
// while the engine builds its shard views and is not read again. Results are
// bit-identical across stores of the same graph at every configuration.
func NewFromStore(st graph.GraphStore, cfg Config) *Engine {
	w := clampWorkers(cfg.Workers)
	v := st.NumVertices()
	p := cfg.Shards
	if p <= 0 {
		p = 2 * w
	}
	if p > maxShards {
		p = maxShards
	}
	if uint32(p) > v {
		p = int(v)
	}
	if p < 1 {
		p = 1
	}
	e := &Engine{store: st, g: graph.StoreCSR(st), v: v, nEdges: st.NumEdges(), workers: w, shards: p, dir: cfg.Direction}
	e.alpha = defaultAlpha
	if cfg.Alpha > 0 {
		e.alpha = uint64(cfg.Alpha)
	}
	e.beta = defaultBeta
	if cfg.Beta > 0 {
		e.beta = uint64(cfg.Beta)
	}
	e.tileWidth = cfg.TileSourceWidth
	if e.tileWidth == 0 {
		e.tileWidth = graph.PullTileWidth(v, 0)
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
	e.partition()
	return e
}

// Successor is an engine's hand-over to the next graph version: the next
// engine complete except for its graph. It references nothing of the
// predecessor's graph, so an owner holding the only reference to the
// predecessor can drop it — graph, index and all — before it materializes
// the next graph, and never has two versions resident at once.
type Successor struct{ next *Engine }

// Advance prepares the engine of the next graph version, whose graph is this
// engine's plus the inserted edges, and reports how many pull tiles it
// rewrote. The next engine shares the configuration, the shard bounds and
// every pull tile no inserted edge lands in, so deriving it costs
// O(V + touched tiles) instead of the O(V+E) of New plus a lazy rebuild.
// Keeping the bounds lets shard balance drift by the inserted in-degree, so a
// caller re-partitions with New now and then. The dense sub-CSRs are not
// carried; they stay lazily built. With nothing inserted the successor shares
// the whole index and costs O(1).
//
// An engine that has not built its pull index has nothing to carry: Advance
// returns nil and the caller builds the next version with New.
//
// The receiver is never written: runs in flight on it finish unaffected, and
// it remains a valid engine for its own version. The two engines share one
// run-state free list (states are sized by vertex and shard count, which do
// not change, and belong to whichever engine last took them), so a version
// step allocates no per-vertex scratch and a state parked by a late run on
// the old version is still reused by the new one.
func (e *Engine) Advance(inserted []graph.Edge) (succ *Successor, touchedTiles int) {
	idx := e.pull.Load()
	if idx == nil {
		return nil, 0
	}
	next := &Engine{
		v: e.v, nEdges: e.nEdges + uint64(len(inserted)),
		workers: e.workers, shards: e.shards, bounds: e.bounds, owner: e.owner,
		tileWidth: e.tileWidth, dir: e.dir, alpha: e.alpha, beta: e.beta,
		free: e.free,
	}
	carried, touchedTiles := idx.carry(e.owner, e.tileWidth, inserted)
	next.pull.Store(carried) // pullViews checks the pointer before the Once
	return &Successor{next}, touchedTiles
}

// Advance folds further inserted edges into a successor that has not been
// bound yet, exactly as (*Engine).Advance would on the engine it stands for.
// An owner can therefore keep a successor — the carried index and nothing of
// any graph — across several versions, and bind it at the one that runs.
func (s *Successor) Advance(inserted []graph.Edge) (succ *Successor, touchedTiles int) {
	return s.next.Advance(inserted)
}

// Bind completes the successor with the next version's graph and returns
// the engine; call it once. g must be the predecessor's graph with each
// inserted edge placed in its source's row after every existing edge to the
// same destination, in the order given to Advance — what stream.Overlay
// materializes; the carried index equals a from-scratch build on exactly
// that graph.
func (s *Successor) Bind(g *graph.CSR) *Engine {
	e := s.next
	if g.V != e.v || g.E() != e.nEdges {
		panic(fmt.Sprintf("engine: Bind of a V=%d E=%d graph to a successor expecting V=%d E=%d",
			g.V, g.E(), e.v, e.nEdges))
	}
	e.store, e.g = graph.AsStore(g), g
	return e
}

// outDeg returns vertex u's out-degree from the fastest available source.
func (e *Engine) outDeg(u uint32) uint32 {
	if e.g != nil {
		return e.g.OutDeg(u)
	}
	return e.store.OutDeg(u)
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
// phase — they only add scheduler churn and (via the 2×Workers shard
// default) bucket traffic, which is exactly the parallel-8 anti-scaling
// the benchmark grid used to show. The clamp cannot change results: every
// width is bit-identical by construction.
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

// Shards returns the number of destination partitions.
func (e *Engine) Shards() int { return e.shards }

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
	rs.e = nil             // nor, across Advance, a superseded version's graph and index
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

// Run is the one-shot convenience: build an engine with workers goroutines
// and execute the kernel once.
func Run(g *graph.CSR, k algorithms.Kernel, src uint32, maxIters, workers int) *Result {
	return New(g, Config{Workers: workers}).Run(k, src, maxIters)
}
