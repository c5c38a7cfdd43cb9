package stream

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// Config tunes a DynamicEngine. The zero value selects GOMAXPROCS workers,
// a repair budget of E/4 edge visits and compaction at E/4 delta edges.
type Config struct {
	// Workers is the phase width of the fallback parallel engine (full
	// recomputes); <= 0 selects GOMAXPROCS. Results are bit-identical at
	// every value.
	Workers int
	// FatFraction is the repair budget as a fraction of the current edge
	// count: once an incremental repair has visited more than
	// FatFraction × E edges the touched set is "fat" and the repair is
	// abandoned for a full engine.Run (both produce the same bits; only
	// the constants differ). 0 selects 0.25; negative disables repair
	// entirely (always full runs).
	FatFraction float64
	// CompactThreshold is the delta-edge count past which the overlay is
	// compacted back into a fresh CSR after an update. 0 selects
	// max(E/4, 4096).
	CompactThreshold uint64
}

// Stats counts a DynamicEngine's work since construction.
type Stats struct {
	Version            uint64 // batches applied
	EdgesApplied       uint64 // edges inserted across all batches
	IncrementalRepairs uint64 // queries served by incremental repair
	FullRecomputes     uint64 // queries served by a full engine.Run
	CachedServes       uint64 // queries served from an already-current state
	Compactions        uint64 // overlay compactions
	DeltaPRQueries     uint64 // ApproxPageRank calls
	DeltaPRPushes      uint64 // residual pushes across all ApproxPageRank calls

	// Repair-shape counters (DESIGN.md §11): RepairTouched is the
	// cumulative touched-set size — vertices whose property a repair
	// actually improved — and RepairEdges the cumulative edge visits
	// repairs spent, including the wasted work of aborted (fat) repairs
	// counted by RepairAborts. Touched ≪ V and Edges ≪ E is the whole
	// case for incremental serving; these make it a measured claim.
	RepairTouched uint64
	RepairEdges   uint64
	RepairAborts  uint64

	// How full recomputes got their engine index when the graph version had
	// moved (fullRun): IndexCarried counts engines derived from their
	// predecessor by merging the inserted edges (engine.Advance),
	// IndexRebuilt engines built from scratch — the first one, and every
	// one after a compaction, a replay-log overflow or a predecessor that
	// never built a pull index.
	IndexCarried uint64
	IndexRebuilt uint64

	// Time QueryOpts and ApplyUpdates spent blocked on the engine's mutex
	// behind another query or update: LockWaits counts the acquisitions that
	// found it held, LockWaitNs the time they then waited. A query that
	// waits here holds its worker slot while it does.
	LockWaitNs uint64
	LockWaits  uint64
}

// QueryInfo describes how a query was served.
type QueryInfo struct {
	// Version is the graph version the result was computed on.
	Version uint64
	// Edges is the graph's edge count at that version (snapshotted under
	// the same lock as the execution, so it is consistent with Version
	// even when updates race the query).
	Edges uint64
	// Mode is "cached", "incremental" or "full".
	Mode string
	// RepairEdges is the number of edge visits the incremental repair
	// spent (0 for cached and full serves; full-run work is in the
	// result's own EdgeVisits).
	RepairEdges uint64
}

// stateKey identifies one cached kernel fixed point.
type stateKey struct {
	kernel string
	src    uint32
}

// kernelState is a converged (fixed-point) result for one (kernel, src) at
// some graph version. prop is owned by the state and mutated in place by
// repairs; query results always return clones.
type kernelState struct {
	prop    []uint64
	version uint64
	// support[v] counts v's in-edges from members (property bit 0 set) at
	// version. Only support-growth kernels have it, and only from the
	// state's first repair on (repairSupport), so a full run pays nothing
	// for it.
	support []uint32
}

// maxKernelStates bounds the per-engine fixed-point memo; eviction order is
// arbitrary (evicting only costs a future full run, never correctness).
const maxKernelStates = 64

// DynamicEngine executes kernels over a mutable Overlay, repairing cached
// fixed points incrementally when edges are inserted. All methods are safe
// for concurrent use; queries and updates serialize on one mutex (a query
// may repair a memoized fixed point in place, so — unlike runs on a static
// engine.Engine — two queries cannot share the structure; build one
// DynamicEngine per independent stream).
//
// Exactness contract (DESIGN.md §10, §15): Query returns vertex properties
// bit-identical to algorithms.RunReference on the materialized post-update
// graph, with the incremental path selected by the kernel's declared
// repair strategy. Monotone-worklist kernels (bfs, cc, sssp, sswp) get
// true incremental repair — their fixed points are unique, so
// re-activating only vertices whose fold inputs changed converges to
// exactly the reference bits. Support-growth kernels (kcore) are repaired by
// finding the vertices that join the member set, which under insertions only
// grows and is unique (repairSupport). Residual kernels (pr, ppr) have
// reference results that are truncated float64 power-iteration trajectories,
// which no sub-linear repair can reproduce bit-for-bit, so their exact
// queries fall back to a full engine.Run; ApproxPageRank and
// ApproxPersonalizedPageRank are the incremental delta-PageRank paths with
// an explicit tolerance. Full-recompute kernels (lp) declare no incremental
// path and always run in full.
type DynamicEngine struct {
	mu      sync.Mutex
	ov      *Overlay
	nv      uint32 // vertex count, fixed at construction (lock-free reads)
	workers int
	fatFrac float64
	compact uint64

	// log[i] is the batch that produced version logBase+1+i; repairs
	// replay the batches between a state's version and the current one.
	log     [][]EdgeUpdate
	logBase uint64

	states map[stateKey]*kernelState
	// eng is the engine on the materialized CSR of version engVer, kept only
	// while that version is current. The first update after it retires it to
	// carry — its pull index with nothing of the graph, what the next full
	// run can derive its own index from — or to nothing (retireEngine).
	eng    *engine.Engine
	carry  *engine.Successor
	engVer uint64
	// engCompactions is stats.Compactions when eng was last built from
	// scratch: a compaction since then is the cue to re-partition.
	engCompactions uint64
	// prs holds the delta-PR (estimate, residual) states, keyed by
	// teleport: prGlobal for uniform teleport, a vertex id for
	// personalized (deltapr.go).
	prs map[int64]*prState

	// repair scratch, sized V.
	inQueue []bool
	queue   []uint32
	next    []uint32

	// Support-growth repair (repairSupport): indeg[v] is v's current
	// in-degree, built by the first such repair and bumped by ApplyUpdates
	// from then on; candIn is scratch, sized V.
	indeg  []uint32
	candIn []uint32

	stats Stats
}

// maxLogBatches bounds the replay log; states older than the log's reach
// are repaired by a full run instead.
const maxLogBatches = 256

// New builds a DynamicEngine over base. The base CSR is shared read-only.
func New(base *graph.CSR, cfg Config) *DynamicEngine {
	w := cfg.Workers
	if w <= 0 {
		w = 0 // engine.New resolves GOMAXPROCS itself
	}
	d := &DynamicEngine{
		ov:      NewOverlay(base),
		nv:      base.V,
		workers: w,
		fatFrac: cfg.FatFraction,
		compact: cfg.CompactThreshold,
		states:  map[stateKey]*kernelState{},
		prs:     map[int64]*prState{},
	}
	if d.fatFrac == 0 {
		d.fatFrac = 0.25
	}
	return d
}

// NewRestored builds a DynamicEngine whose overlay resumes from a
// WAL-recovered state (OpenWAL): the full insertion history since base, in
// insertion order, at the version it reaches. Queries against the restored
// engine return bits identical to the pre-crash engine at the same version:
// the overlay materializes to the same CSR (Overlay.Restore), the monotone
// kernels have unique fixed points on that graph, and pr always runs in
// full on the materialized CSR — so none of the pre-crash engine's
// incidental state (compactions, repair memos, replay log) affects any
// result. The repair log restarts empty at the recovered version; the
// first queries pay full runs and repairs resume from there.
func NewRestored(base *graph.CSR, cfg Config, rec *Recovered) (*DynamicEngine, error) {
	d := New(base, cfg)
	if rec == nil || (rec.Version == 0 && len(rec.History) == 0) {
		return d, nil
	}
	if err := d.ov.Restore(rec.History, rec.Version); err != nil {
		return nil, err
	}
	d.logBase = rec.Version
	threshold := d.compact
	if threshold == 0 {
		threshold = max(d.ov.Base().E()/4, 4096)
	}
	if d.ov.DeltaEdges() > threshold {
		d.ov.Compact()
		d.stats.Compactions++
	}
	return d, nil
}

// lock takes the engine's mutex for a query or an update, counting the time
// spent blocked behind another one (Stats.LockWaits, LockWaitNs). The
// uncontended path reads no clock.
func (d *DynamicEngine) lock() {
	if d.mu.TryLock() {
		return
	}
	t0 := time.Now()
	d.mu.Lock()
	d.stats.LockWaits++
	d.stats.LockWaitNs += uint64(time.Since(t0))
}

// Version returns the current graph version (the number of applied
// batches).
func (d *DynamicEngine) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ov.Version()
}

// Graph returns the materialized current graph (read-only). It is rebuilt
// lazily per version.
func (d *DynamicEngine) Graph() *graph.CSR {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ov.Materialized()
}

// V returns the (fixed) vertex count; E the current edge count. V reads a
// construction-time copy — going through the overlay would race Compact's
// base-pointer swap.
func (d *DynamicEngine) V() uint32 { return d.nv }

func (d *DynamicEngine) E() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ov.E()
}

// Stats returns a snapshot of the work counters.
func (d *DynamicEngine) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Version = d.ov.Version()
	return s
}

// ApplyUpdates inserts a batch of edges atomically and returns the new
// graph version. The batch is appended to the repair log; when the overlay
// has accumulated enough delta edges it is compacted back into a fresh
// CSR (an O(V+E) representation change that alters no result).
func (d *DynamicEngine) ApplyUpdates(batch []EdgeUpdate) (uint64, error) {
	d.lock()
	defer d.mu.Unlock()
	if err := d.ov.Apply(batch); err != nil {
		return 0, err
	}
	d.stats.EdgesApplied += uint64(len(batch))
	if d.indeg != nil {
		for _, e := range batch {
			d.indeg[e.Dst]++
		}
	}
	d.log = append(d.log, slices.Clone(batch))
	if len(d.log) > maxLogBatches {
		drop := len(d.log) - maxLogBatches
		d.log = append(d.log[:0], d.log[drop:]...)
		d.logBase += uint64(drop)
	}
	// Delta-PR states repair eagerly per batch (their residual adjustments
	// need the pre-batch degrees, which are cheapest to reconstruct right
	// at the boundary — deltapr.go).
	if len(d.prs) > 0 {
		d.prAbsorbBatch(batch)
	}
	threshold := d.compact
	if threshold == 0 {
		threshold = max(d.ov.Base().E()/4, 4096)
	}
	if d.ov.DeltaEdges() > threshold {
		d.ov.Compact()
		d.stats.Compactions++
	}
	d.retireEngine()
	return d.ov.Version(), nil
}

// retireEngine runs after every applied batch and keeps of the full-run
// engine only what a later full run can use. The engine itself — the
// materialized graph of a version that is no longer current, its sub-CSRs,
// its pull index — can never run again; all the next version can take from it
// is the pull index (engine.Advance), so that is what stays, as a successor
// holding no graph, and only while the carry is still possible: the replay
// log reaches back to engVer and no compaction has re-based the overlay since
// the last from-scratch build. A DynamicEngine whose queries are all repairs
// therefore holds no engine at all. Retiring costs O(1): a successor with
// nothing inserted shares the whole index, so the one copy a version step
// pays is advanceEngine's.
func (d *DynamicEngine) retireEngine() {
	if d.engVer < d.logBase || d.engCompactions != d.stats.Compactions {
		d.eng, d.carry = nil, nil // nothing can be carried from engVer any more
		return
	}
	if d.eng != nil {
		d.carry, _ = d.eng.Advance(nil) // nil: no pull index to carry
		d.eng = nil
	}
}

// resolveSrc canonicalizes a query source exactly as piccolo.RunKernel
// does, but against the current overlay: the descriptor's source role
// decides whether src is ignored (canonicalized to 0 so cached state is
// shared across spellings), a kernel parameter (negative selects the
// descriptor default), or a source vertex (negative or out-of-range
// selects the highest-out-degree vertex at the current version).
func (d *DynamicEngine) resolveSrc(desc algorithms.Descriptor, src int64) uint32 {
	return algorithms.ResolveSource(desc, src, d.ov.V(), d.ov.HighestDegreeVertex)
}

// Query executes the kernel at the current graph version and returns
// properties bit-identical to algorithms.RunReference on the materialized
// graph. maxIters <= 0 selects engine.DefaultMaxIters; any explicit
// non-default cap always takes the full-run path (a capped run is not a
// fixed point, so it can neither use nor feed the repair states, and a
// state converged under one cap must not answer for another). The result's
// Iterations/EdgeVisits report the work this call performed — for an
// incremental serve that is the repair work, the measure of what streaming
// saves.
func (d *DynamicEngine) Query(kernel string, src int64, maxIters int) (*algorithms.ReferenceResult, QueryInfo, error) {
	return d.QueryOpts(context.Background(), kernel, src, maxIters, engine.RunOptions{})
}

// QueryCtx is Query with cooperative cancellation (QueryOpts).
func (d *DynamicEngine) QueryCtx(ctx context.Context, kernel string, src int64, maxIters int) (*algorithms.ReferenceResult, QueryInfo, error) {
	return d.QueryOpts(ctx, kernel, src, maxIters, engine.RunOptions{})
}

// QueryOpts is Query with cooperative cancellation and the per-run options
// of the underlying engine. opts.Trace records this execution's spans
// (DESIGN.md §11): an incremental serve records one "repair" span
// (touched-set size, edge visits, worklist rounds; a support-growth repair
// adds candidates, joined and peeled); a full recompute
// records the engine's per-superstep spans, preceded by an "index" and a
// "materialize" span when it had to bring the engine to the current version
// (advanceEngine).
// opts.Workers / opts.Width set the phase width of a full recompute (repairs
// are single-threaded); the zero options select Config.Workers.
//
// The context is checked at superstep boundaries of full engine runs and at
// worklist round boundaries of incremental repairs; on cancellation it
// returns the context error together with a partial-progress result
// (Iterations and EdgeVisits for the work performed, Prop nil) and the
// engine's durable state is exactly as if the query had never run: a
// canceled repair discards its half-advanced fixed point the same way a fat
// abort does, and a canceled full run stores nothing. A query that completes
// before a boundary observes the cancellation returns the full result —
// cancel yields either the context error or the bit-identical result, never
// a third state (cancel_test.go).
func (d *DynamicEngine) QueryOpts(ctx context.Context, kernel string, src int64, maxIters int, opts engine.RunOptions) (*algorithms.ReferenceResult, QueryInfo, error) {
	tr := opts.Trace
	k, err := algorithms.New(kernel)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	desc := k.Descriptor()
	d.lock()
	defer d.mu.Unlock()
	if d.ov.V() == 0 {
		return nil, QueryInfo{}, fmt.Errorf("stream: query on empty graph")
	}
	defaultCap := algorithms.EffectiveMaxIters(desc, 0, engine.DefaultMaxIters)
	maxIters = algorithms.EffectiveMaxIters(desc, maxIters, engine.DefaultMaxIters)
	s := d.resolveSrc(desc, src)
	cur := d.ov.Version()
	info := QueryInfo{Version: cur, Edges: d.ov.E()}

	// Only default-cap queries touch the state memo: states are results
	// reached under that cap, and serving one for a different explicit cap
	// could disagree with a reference run truncated at that cap (e.g. a
	// cap above the default but below the graph's convergence length).
	cacheable := maxIters == defaultCap
	// Only kernels declaring monotone-worklist or support-growth repair have
	// an incremental exact path — residual kernels (pr, ppr) serve exact
	// queries by full recompute (their reference bits are a truncated float
	// trajectory) with the residual machinery on the Approx* side, and
	// full-recompute kernels (lp) declare no repair at all; both still serve
	// same-version repeats from the memo (execution is deterministic, so
	// an unchanged graph means unchanged bits).
	repair := d.repairFor(k, desc)
	repairable := repair != nil && cacheable && d.fatFrac > 0
	key := stateKey{kernel: kernel, src: s}
	if cacheable {
		if st := d.states[key]; st != nil {
			if st.version == cur {
				d.stats.CachedServes++
				info.Mode = "cached"
				return &algorithms.ReferenceResult{Prop: slices.Clone(st.prop)}, info, nil
			}
			if repairable && st.version >= d.logBase {
				t0 := time.Now()
				res, span, ok, rerr := repair(ctx, st, cur)
				if ok {
					d.stats.IncrementalRepairs++
					info.Mode = "incremental"
					info.RepairEdges = res.EdgeVisits
					span["kernel"] = kernel
					tr.Add("repair", t0, time.Since(t0), span)
					return res, info, nil
				}
				// An aborted repair — fat or canceled — leaves st
				// half-advanced: its values are valid bounds but no longer
				// a fixed point of any version, so it must not seed a
				// future repair.
				delete(d.states, key)
				if rerr != nil {
					info.Mode = "incremental"
					info.RepairEdges = res.EdgeVisits
					return res, info, rerr
				}
			}
			// Out of log reach or fat: fall through to a full run, which
			// replaces the state below.
		}
	}

	res, err := d.fullRun(ctx, k, s, maxIters, opts)
	d.stats.FullRecomputes++
	info.Mode = "full"
	if err != nil {
		return res, info, err
	}
	// Memoize for same-version repeats — and, for repairable kernels, as
	// the seed of future repairs. A repairable state must be a
	// true fixed point (repair resumes the worklist from it); iteration-
	// capped results are still valid to *serve* at this exact version, but
	// for repairable kernels they must not enter the memo at all, since the
	// memo doubles as the repair seed. The state owns its own copy so later
	// repairs cannot mutate the result we are about to return (the runner
	// caches it).
	if cacheable && (!repairable || res.Iterations < maxIters) {
		if len(d.states) >= maxKernelStates {
			for k := range d.states { // arbitrary eviction: costs a future full run, never correctness
				delete(d.states, k)
				break
			}
		}
		d.states[key] = &kernelState{prop: slices.Clone(res.Prop), version: cur}
	}
	return res, info, nil
}

// fullRun executes the kernel on the materialized graph with the memoized
// parallel engine (brought to the current version first), with cancellation
// checked at the engine's superstep boundaries.
func (d *DynamicEngine) fullRun(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts engine.RunOptions) (*algorithms.ReferenceResult, error) {
	if d.eng == nil { // retired by an update, or never built
		d.advanceEngine(d.ov.Version(), opts.Trace)
	}
	return d.eng.RunCtx(ctx, k, src, maxIters, opts)
}

// advanceEngine builds d.eng for version cur. The index is carried — the
// retired predecessor's pull index (retireEngine) with the edges logged since
// engVer merged in by engine.Advance — when there is one to carry; otherwise
// the engine is rebuilt, which re-partitions the shards and leaves the index
// to the first pull superstep (its span carries index_build_ns). Compactions
// come at least E/4 inserted edges apart, which bounds how far the carried
// shard bounds drift from balance.
//
// The predecessor's graph was released when it went stale, so the heap never
// holds two versions of the graph; the trace gets an "index" span (how, and
// for a carry the inserted-edge and rewritten-tile counts) and a
// "materialize" span, in the order the work ran.
func (d *DynamicEngine) advanceEngine(cur uint64, tr *obs.Trace) {
	var succ *engine.Successor
	if d.carry != nil {
		t0 := time.Now()
		var inserted []graph.Edge
		for _, batch := range d.log[d.engVer-d.logBase:] {
			for _, e := range batch {
				inserted = append(inserted, graph.Edge(e))
			}
		}
		var touched int
		succ, touched = d.carry.Advance(inserted)
		d.carry = nil
		d.stats.IndexCarried++
		tr.Add("index", t0, time.Since(t0), map[string]any{
			"how": "carried", "inserted": len(inserted), "touched_tiles": touched,
		})
	}
	t0 := time.Now()
	g := d.ov.Materialized()
	t1 := time.Now()
	tr.Add("materialize", t0, t1.Sub(t0), map[string]any{"edges": g.E()})
	if succ != nil {
		d.eng = succ.Bind(g)
	} else {
		d.eng = engine.New(g, engine.Config{Workers: d.workers})
		d.engCompactions = d.stats.Compactions
		d.stats.IndexRebuilt++
		tr.Add("index", t1, time.Since(t1), map[string]any{"how": "rebuilt"})
	}
	d.engVer = cur
}

// repair advances a fixed point from st.version to the current version by
// monotone re-activation: the sources of the inserted edges seed a
// worklist, and any vertex whose property improves re-scans its out-edges
// (over the overlay adjacency, so inserted edges propagate too). Because
// the monotone kernels' Reduce/Apply are idempotent order-insensitive
// folds with a unique fixed point above the starting state, the quiesced
// result is bit-identical to a from-scratch reference run on the
// materialized graph. Returns ok=false when the visited-edge budget
// (FatFraction × E) is exceeded — the half-advanced state is still a valid
// over-approximation but the caller discards it for a full run — or when
// the context is canceled, checked once per worklist round (the
// worklist-drain boundary); a canceled repair additionally returns the
// context error and a partial-progress result (rounds and edge visits, no
// properties), and the caller discards the state exactly like a fat abort,
// so cancellation leaves nothing half-advanced observable. The span's
// touched count is the touched-set size: distinct worklist enqueues, i.e.
// vertices whose property the repair improved.
func (d *DynamicEngine) repair(ctx context.Context, k algorithms.Kernel, desc algorithms.Descriptor, st *kernelState, cur uint64) (*algorithms.ReferenceResult, map[string]any, bool, error) {
	if d.inQueue == nil {
		d.inQueue = make([]bool, d.ov.V())
	}
	prop := st.prop
	// The descriptor's Unusable marker is the property value meaning "this
	// vertex has no information to propagate yet"; sources holding it are
	// skipped (bfs/sssp: Process would overflow MaxUint64, sswp: zero width
	// contributes the Reduce identity; cc declares none — labels are always
	// meaningful).
	unusable, hasUnusable := desc.Unusable, desc.HasUnusable
	budget := uint64(d.fatFrac * float64(d.ov.E()))
	var visited, touched uint64

	frontier := d.queue[:0]
	enqueue := func(v uint32) {
		if !d.inQueue[v] {
			d.inQueue[v] = true
			touched++
			frontier = append(frontier, v)
		}
	}
	// Seed: fold every inserted edge's contribution directly into its
	// destination (srcDeg is irrelevant — only the rank kernels' Process
	// reads it, and they never take this path: repair is reserved for
	// monotone-worklist kernels).
	ok := true
	for i := st.version - d.logBase; i < uint64(len(d.log)) && ok; i++ {
		for _, e := range d.log[i] {
			visited++
			if visited > budget {
				ok = false
				break
			}
			if hasUnusable && prop[e.Src] == unusable {
				continue
			}
			contrib := k.Process(e.Weight, prop[e.Src], 0)
			if np := k.Apply(prop[e.Dst], contrib); !k.Converged(prop[e.Dst], np) {
				prop[e.Dst] = np
				enqueue(e.Dst)
			}
		}
	}

	res := &algorithms.ReferenceResult{}
	var cancelErr error
	for len(frontier) > 0 && ok {
		// Worklist-drain boundary: the only cancellation point — the
		// previous round fully drained, so prop is a consistent
		// over-approximation and the scratch marks below stay balanced.
		if cancelErr = ctx.Err(); cancelErr != nil {
			ok = false
			break
		}
		res.Iterations++
		next := d.next[:0]
		for _, u := range frontier {
			d.inQueue[u] = false
		}
		for _, u := range frontier {
			visited += uint64(d.ov.OutDeg(u))
			if visited > budget {
				ok = false
				break
			}
			pu := prop[u]
			d.ov.EachEdge(u, func(v uint32, w uint8) {
				contrib := k.Process(w, pu, 0)
				if np := k.Apply(prop[v], contrib); !k.Converged(prop[v], np) {
					prop[v] = np
					if !d.inQueue[v] {
						d.inQueue[v] = true
						touched++
						next = append(next, v)
					}
				}
			})
		}
		frontier, next = next, frontier
		d.queue, d.next = frontier, next
	}
	// Reset scratch marks for the next repair regardless of outcome.
	for _, u := range frontier {
		d.inQueue[u] = false
	}
	res.EdgeVisits = visited
	span := map[string]any{"touched": touched, "edge_visits": visited, "rounds": res.Iterations}
	res, ok, err := d.settleRepair(st, cur, res, touched, ok, cancelErr)
	return res, span, ok, err
}

// repairFunc is one exact repair strategy bound to its kernel: it advances
// the memoized fixed point st to version cur in place. ok reports a completed
// repair, whose res carries a clone of the properties and whose span holds the
// "repair" span's attributes; !ok is an abandoned one — over the
// FatFraction × E edge-visit budget (res nil, err nil: the caller runs in
// full) or canceled (res is the partial progress without properties, err the
// context error) — and the caller must discard st either way.
type repairFunc func(ctx context.Context, st *kernelState, cur uint64) (res *algorithms.ReferenceResult, span map[string]any, ok bool, err error)

// repairFor returns the repair the kernel's descriptor declares, nil when its
// strategy has no exact incremental path. Each repair takes what it reads:
// the worklist folds with the kernel's own Process/Apply, the support repair
// reads nothing but the property layout its strategy's contract fixes.
func (d *DynamicEngine) repairFor(k algorithms.Kernel, desc algorithms.Descriptor) repairFunc {
	switch desc.Repair {
	case algorithms.RepairMonotoneWorklist:
		return func(ctx context.Context, st *kernelState, cur uint64) (*algorithms.ReferenceResult, map[string]any, bool, error) {
			return d.repair(ctx, k, desc, st, cur)
		}
	case algorithms.RepairSupportGrowth:
		return d.repairSupport
	}
	return nil
}

// settleRepair is the common end of a repair attempt: it accounts the work
// (res.EdgeVisits, touched) and either stamps st current and hands res a
// clone of its properties, or counts the abort and shapes the return values
// as repairFunc documents them.
func (d *DynamicEngine) settleRepair(st *kernelState, cur uint64, res *algorithms.ReferenceResult, touched uint64, ok bool, cancelErr error) (*algorithms.ReferenceResult, bool, error) {
	d.stats.RepairEdges += res.EdgeVisits
	d.stats.RepairTouched += touched
	if !ok {
		d.stats.RepairAborts++
		if cancelErr != nil {
			return res, false, cancelErr
		}
		return nil, false, nil
	}
	st.version = cur
	res.Prop = slices.Clone(st.prop)
	return res, true, nil
}
