package stream

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// Config tunes a DynamicEngine. The zero value selects GOMAXPROCS workers
// and compaction at E/4 delta edges.
type Config struct {
	// Workers is the phase width of the parallel engine behind full
	// recomputes; <= 0 selects GOMAXPROCS. Results are bit-identical at
	// every value.
	Workers int

	// compactThreshold is the delta-edge count past which the overlay is
	// compacted back into a fresh CSR after an update. 0 selects
	// max(E/4, 4096). Only tests set it.
	compactThreshold uint64
}

// Stats counts a DynamicEngine's work since construction.
type Stats struct {
	Version            uint64 // batches applied
	EdgesApplied       uint64 // edges inserted across all batches
	IncrementalRepairs uint64 // queries served by incremental repair
	FullRecomputes     uint64 // queries served by a full engine.Run
	CachedServes       uint64 // queries served from an already-current state
	Compactions        uint64 // overlay compactions

	// Repair-shape counters (DESIGN.md §11): RepairTouched is the
	// cumulative touched-set size — vertices whose property a repair
	// actually improved — and RepairEdges the cumulative edge visits
	// repairs spent, including the work of canceled ones. Touched ≪ V and
	// Edges ≪ E is the whole case for incremental serving; these make it a
	// measured claim.
	RepairTouched uint64
	RepairEdges   uint64

	// How full recomputes got their engine when the graph version had moved
	// (advanceEngine): IndexRebuilt counts engines built on the overlay's
	// base — the first full run's, and the first after each compaction —
	// IndexCarried full runs that advanced an existing engine by merging the
	// inserted edges (engine.Advance).
	IndexCarried uint64
	IndexRebuilt uint64

	// Time QueryCtx and ApplyUpdates spent blocked on the engine's mutex
	// behind another query or update: LockWaits counts the acquisitions that
	// found it held, LockWaitNs the time they then waited. A query that
	// waits here holds its worker slot while it does.
	LockWaitNs uint64
	LockWaits  uint64

	// IndexBytes is what the full-run engine's index owns right now
	// (engine.Engine.IndexBytes), 0 while there is none.
	IndexBytes uint64
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
	// used is the engine's use clock at the state's last serve: a full run
	// that stored it, a repair or a cached serve.
	used uint64
}

// maxKernelStates bounds the per-engine fixed-point memo. A full run that
// must store a new state past it evicts the state served least recently:
// evicting only costs that state's next query a full run, never correctness.
const maxKernelStates = 64

// DynamicEngine executes kernels over a mutable Overlay, repairing cached
// fixed points incrementally when edges are inserted. All methods are safe
// for concurrent use; queries and updates serialize on one mutex (a query
// may repair a memoized fixed point in place, so — unlike runs on a static
// engine.Engine — two queries cannot share the structure; build one
// DynamicEngine per independent stream).
//
// Exactness contract (DESIGN.md §10, §15): QueryCtx returns vertex properties
// bit-identical to algorithms.RunReference on the materialized post-update
// graph, with the incremental path selected by the kernel's declared
// repair strategy. Monotone-worklist kernels (bfs, cc, sssp, sswp) get
// true incremental repair — their fixed points are unique, so
// re-activating only vertices whose fold inputs changed converges to
// exactly the reference bits. Support-growth kernels (kcore) are repaired by
// finding the vertices that join the member set, which under insertions only
// grows and is unique (repairSupport). Full-recompute kernels (pr, ppr, lp)
// declare no incremental path — the rank kernels' reference results are
// truncated float64 power-iteration trajectories, which no sub-linear repair
// can reproduce bit-for-bit — so they always run in full, and only
// same-version repeats are served from the memo.
type DynamicEngine struct {
	mu sync.Mutex
	// snap is the counter snapshot Stats returns, published by every unlock
	// so a scrape never waits behind a running query.
	snap    atomic.Pointer[Stats]
	ov      *Overlay
	nv      uint32 // vertex count, fixed at construction (lock-free reads)
	workers int
	compact uint64

	// log[i] is the batch that produced version logBase+1+i. It reaches
	// back to baseVer, the version of the overlay's base (apply): repairs
	// replay the batches between a state's version and the current one, and
	// a full run carries an engine built on the base along them.
	log     [][]EdgeUpdate
	logBase uint64
	baseVer uint64

	states map[stateKey]*kernelState
	clock  uint64 // counts state uses; kernelState.used reads it
	// eng is the full-run engine of version engVer >= baseVer. While that
	// version is current it runs; once an update moves the graph it holds
	// only its pull index, which the next full run advances to its own
	// version (advanceEngine). nil before the first full run and after a
	// compaction.
	eng    *engine.Engine
	engVer uint64

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

// maxLogBatches is how many batches the replay log keeps at least; it drops
// older ones only once the overlay's base holds them. States older than the
// log's reach are served by a full run instead.
const maxLogBatches = 256

// New builds a DynamicEngine over base. The base CSR is shared read-only.
func New(base *graph.CSR, cfg Config) *DynamicEngine {
	d := &DynamicEngine{
		ov:      NewOverlay(base),
		nv:      base.V,
		workers: cfg.Workers, // engine.New resolves <= 0 to GOMAXPROCS
		compact: cfg.compactThreshold,
		states:  map[stateKey]*kernelState{},
	}
	d.publish()
	return d
}

// NewRestored builds a DynamicEngine at a WAL-recovered state (OpenWAL) by
// replaying its batches through the update path (apply), one version each.
// Queries against it return bits identical to the pre-crash engine at the
// same version: the overlay holds the same edges in the same order, the
// monotone kernels have unique fixed points on that graph, and pr always runs
// in full, bit-identical to a reference run on it — so none of the pre-crash
// engine's incidental state (repair memos, its full-run engine) affects any
// result. A batch the update path refuses fails the restore, naming its
// version. The engine keeps rec's batches; the caller must not modify them.
func NewRestored(base *graph.CSR, cfg Config, rec *Recovered) (*DynamicEngine, error) {
	d := New(base, cfg)
	for i, batch := range rec.Batches {
		if err := d.apply(batch); err != nil {
			return nil, fmt.Errorf("stream: restore version %d: %w", i+1, err)
		}
	}
	d.publish()
	return d, nil
}

// compactIfDue compacts the overlay back into a fresh CSR once its delta
// edges pass the threshold: Config.compactThreshold, or max(E/4, 4096) of
// the base when that is 0.
func (d *DynamicEngine) compactIfDue() {
	threshold := d.compact
	if threshold == 0 {
		threshold = max(d.ov.Base().E()/4, 4096)
	}
	if d.ov.DeltaEdges() > threshold {
		d.ov.Compact()
		d.stats.Compactions++
		d.baseVer = d.ov.Version()
		d.eng = nil // it may predate the new base, whose batches the log may drop
	}
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

// unlock publishes the counters and releases the mutex taken by lock.
func (d *DynamicEngine) unlock() {
	d.publish()
	d.mu.Unlock()
}

// publish stores a copy of the counters, stamped with the current version,
// for Stats. Callers hold the mutex or own d outright.
func (d *DynamicEngine) publish() {
	s := d.stats
	s.Version = d.ov.Version()
	if d.eng != nil {
		s.IndexBytes = d.eng.IndexBytes()
	}
	d.snap.Store(&s)
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

// Stats returns the work counters as of the last completed query or update.
// It takes no lock, so it never waits behind a running query.
func (d *DynamicEngine) Stats() Stats { return *d.snap.Load() }

// ApplyUpdates inserts a batch of edges atomically and returns the new
// graph version (apply). The caller keeps batch; the log holds a copy.
func (d *DynamicEngine) ApplyUpdates(batch []EdgeUpdate) (uint64, error) {
	d.lock()
	defer d.unlock()
	if err := d.apply(slices.Clone(batch)); err != nil {
		return 0, err
	}
	return d.ov.Version(), nil
}

// apply is the one version step, shared by ApplyUpdates and WAL replay: the
// overlay takes the batch, the replay log keeps it (apply owns batch), and the
// overlay is compacted back into a fresh CSR once it has accumulated enough
// delta edges (an O(V+E) representation change that alters no result). The
// log is trimmed after compacting: it keeps at least maxLogBatches batches and
// never drops one the base does not hold, so a full run can always carry from
// the base. The full-run engine stays as it is until a full run advances it:
// its rows alias the base CSR the overlay holds anyway, plus the chunks it
// rewrote.
func (d *DynamicEngine) apply(batch []EdgeUpdate) error {
	if err := d.ov.Apply(batch); err != nil {
		return err
	}
	d.stats.EdgesApplied += uint64(len(batch))
	if d.indeg != nil {
		for _, e := range batch {
			d.indeg[e.Dst]++
		}
	}
	d.log = append(d.log, batch)
	d.compactIfDue()
	if drop := min(len(d.log)-maxLogBatches, int(d.baseVer-d.logBase)); drop > 0 {
		d.log = slices.Delete(d.log, 0, drop) // clears the vacated tail too
		d.logBase += uint64(drop)
	}
	return nil
}

// resolveSrc canonicalizes a query source exactly as the runner's static
// queries do, but against the current overlay: the descriptor's source role
// decides whether src is ignored (canonicalized to 0 so cached state is
// shared across spellings), a kernel parameter (negative selects the
// descriptor default), or a source vertex (negative or out-of-range
// selects the highest-out-degree vertex at the current version).
func (d *DynamicEngine) resolveSrc(desc algorithms.Descriptor, src int64) uint32 {
	return algorithms.ResolveSource(desc, src, d.ov.V(), d.ov.HighestDegreeVertex)
}

// QueryCtx executes the kernel at the current graph version and returns
// properties bit-identical to algorithms.RunReference on the materialized
// graph. maxIters <= 0 selects engine.DefaultMaxIters; any explicit
// non-default cap always takes the full-run path (a capped run is not a
// fixed point, so it can neither use nor feed the repair states, and a
// state converged under one cap must not answer for another). The result's
// Iterations/EdgeVisits report the work this call performed — for an
// incremental serve that is the repair work, the measure of what streaming
// saves.
//
// opts, when given, are the underlying engine's per-run options (only the
// first is read). Trace records this execution's spans (DESIGN.md §11): an
// incremental serve records one "repair" span (touched-set size, edge visits,
// worklist rounds; a support-growth repair adds candidates, joined and
// peeled); a full recompute records the engine's per-superstep spans,
// preceded by an "index" span when it had to bring the engine to the current
// version (advanceEngine). Width sets the phase width of a full recompute
// (repairs are single-threaded); the zero options select Config.Workers.
//
// The context is checked at superstep boundaries of full engine runs and at
// worklist round boundaries of incremental repairs; on cancellation it
// returns the context error together with a partial-progress result
// (Iterations and EdgeVisits for the work performed, Prop nil) and the
// engine's durable state is exactly as if the query had never run: a
// canceled repair discards its half-advanced fixed point, and a canceled full
// run stores nothing. A query that completes before a boundary observes the
// cancellation returns the full result — cancel yields either the context
// error or the bit-identical result, never a third state (cancel_test.go).
func (d *DynamicEngine) QueryCtx(ctx context.Context, kernel string, src int64, maxIters int, opts ...engine.RunOptions) (*algorithms.ReferenceResult, QueryInfo, error) {
	var opt engine.RunOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	tr := opt.Trace
	k, err := algorithms.New(kernel)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	desc := k.Descriptor()
	d.lock()
	defer d.unlock()
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
	// an incremental exact path; full-recompute kernels (pr, ppr, lp) still
	// serve same-version repeats from the memo (execution is deterministic,
	// so an unchanged graph means unchanged bits).
	repair := d.repairFor(k, desc)
	repairable := repair != nil && cacheable
	key := stateKey{kernel: kernel, src: s}
	if cacheable {
		if st := d.states[key]; st != nil {
			if st.version == cur {
				d.use(st)
				d.stats.CachedServes++
				info.Mode = "cached"
				return &algorithms.ReferenceResult{Prop: slices.Clone(st.prop)}, info, nil
			}
			if repairable && st.version >= d.logBase {
				t0 := time.Now()
				res, span, err := repair(ctx, st, cur)
				info.Mode = "incremental"
				info.RepairEdges = res.EdgeVisits
				if err != nil {
					// A canceled repair leaves st half-advanced: its values
					// are valid bounds but no longer a fixed point of any
					// version, so it must not seed a future repair.
					delete(d.states, key)
					return res, info, err
				}
				d.use(st)
				d.stats.IncrementalRepairs++
				span["kernel"] = kernel
				tr.Add("repair", t0, time.Since(t0), span)
				return res, info, nil
			}
			// No repair, or out of the log's reach: fall through to a full
			// run, which replaces the state below.
		}
	}

	res, err := d.fullRun(ctx, k, s, maxIters, opt)
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
		if _, ok := d.states[key]; !ok && len(d.states) >= maxKernelStates {
			var lru stateKey
			oldest := uint64(math.MaxUint64)
			for k, st := range d.states {
				if st.used < oldest {
					lru, oldest = k, st.used
				}
			}
			delete(d.states, lru)
		}
		st := &kernelState{prop: slices.Clone(res.Prop), version: cur}
		d.use(st)
		d.states[key] = st
	}
	return res, info, nil
}

// use marks st as served now.
func (d *DynamicEngine) use(st *kernelState) {
	d.clock++
	st.used = d.clock
}

// fullRun executes the kernel with the memoized parallel engine, brought to
// the current version first, with cancellation checked at the engine's
// superstep boundaries.
func (d *DynamicEngine) fullRun(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts engine.RunOptions) (*algorithms.ReferenceResult, error) {
	if cur := d.ov.Version(); d.eng == nil || d.engVer != cur {
		d.advanceEngine(cur, opts.Trace)
	}
	return d.eng.RunCtx(ctx, k, src, maxIters, opts)
}

// advanceEngine brings d.eng to version cur. With no engine to carry — the
// first full run, or the first after a compaction — it builds one on the
// overlay's base at the base's version, whose one transpose re-partitions the
// shards and builds the pull index. Then
// engine.Advance merges the edges logged since the engine's version into its
// pull index and its row chunks, and the result runs as is: no graph is
// materialized.
// Compactions come at least E/4 inserted edges apart, which bounds how far
// the carried shard bounds drift from balance.
//
// The trace gets an "index" span, which holds a rebuild's transpose too: how
// ("rebuilt" or "carried"), the inserted-edge count and the rewritten-tile
// count.
func (d *DynamicEngine) advanceEngine(cur uint64, tr *obs.Trace) {
	t0 := time.Now()
	how := "carried"
	if d.eng == nil {
		d.eng, d.engVer, how = engine.New(d.ov.Base(), engine.Config{Workers: d.workers}), d.baseVer, "rebuilt"
		d.stats.IndexRebuilt++
	} else {
		d.stats.IndexCarried++
	}
	var inserted []graph.Edge
	for _, batch := range d.log[d.engVer-d.logBase:] {
		for _, e := range batch {
			inserted = append(inserted, graph.Edge(e))
		}
	}
	var touched int
	if len(inserted) > 0 {
		d.eng, touched = d.eng.Advance(inserted)
	}
	d.engVer = cur
	tr.Add("index", t0, time.Since(t0), map[string]any{
		"how": how, "inserted": len(inserted), "touched_tiles": touched,
	})
}

// repair advances a fixed point from st.version to the current version by
// monotone re-activation: the sources of the inserted edges seed a
// worklist, and any vertex whose property improves re-scans its out-edges
// (over the overlay adjacency, so inserted edges propagate too). Because
// the monotone kernels' Reduce/Apply are idempotent order-insensitive
// folds with a unique fixed point above the starting state, the quiesced
// result is bit-identical to a from-scratch reference run on the
// materialized graph. The context is checked once per worklist round (the
// worklist-drain boundary); a canceled repair returns the context error and
// a partial-progress result (rounds and edge visits, no properties), and the
// caller discards the state, so cancellation leaves nothing half-advanced
// observable. The span's touched count is the touched-set size: distinct
// worklist enqueues, i.e. vertices whose property the repair improved.
func (d *DynamicEngine) repair(ctx context.Context, k algorithms.Kernel, desc algorithms.Descriptor, st *kernelState, cur uint64) (*algorithms.ReferenceResult, map[string]any, error) {
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
	for _, batch := range d.log[st.version-d.logBase:] {
		visited += uint64(len(batch))
		for _, e := range batch {
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
	var err error
	for len(frontier) > 0 {
		// Worklist-drain boundary: the only cancellation point — the
		// previous round fully drained, so prop is a consistent
		// over-approximation and the scratch marks below stay balanced.
		if err = ctx.Err(); err != nil {
			break
		}
		res.Iterations++
		next := d.next[:0]
		for _, u := range frontier {
			d.inQueue[u] = false
		}
		for _, u := range frontier {
			visited += uint64(d.ov.OutDeg(u))
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
	return res, span, d.settleRepair(st, cur, res, touched, err)
}

// repairFunc is one exact repair strategy bound to its kernel: it advances
// the memoized fixed point st to version cur in place and returns a clone of
// its properties and the "repair" span's attributes. An error is the
// context's: res is then the partial progress without properties, and the
// caller must discard st.
type repairFunc func(ctx context.Context, st *kernelState, cur uint64) (res *algorithms.ReferenceResult, span map[string]any, err error)

// repairFor returns the repair the kernel's descriptor declares, nil when its
// strategy has no exact incremental path. Each repair takes what it reads:
// the worklist folds with the kernel's own Process/Apply, the support repair
// reads nothing but the property layout its strategy's contract fixes.
func (d *DynamicEngine) repairFor(k algorithms.Kernel, desc algorithms.Descriptor) repairFunc {
	switch desc.Repair {
	case algorithms.RepairMonotoneWorklist:
		return func(ctx context.Context, st *kernelState, cur uint64) (*algorithms.ReferenceResult, map[string]any, error) {
			return d.repair(ctx, k, desc, st, cur)
		}
	case algorithms.RepairSupportGrowth:
		return d.repairSupport
	}
	return nil
}

// settleRepair is the common end of a repair attempt: it accounts the work
// (res.EdgeVisits, touched) and, unless the repair was canceled (err), stamps
// st current and hands res a clone of its properties. It returns err.
func (d *DynamicEngine) settleRepair(st *kernelState, cur uint64, res *algorithms.ReferenceResult, touched uint64, err error) error {
	d.stats.RepairEdges += res.EdgeVisits
	d.stats.RepairTouched += touched
	if err != nil {
		return err
	}
	st.version = cur
	res.Prop = slices.Clone(st.prop)
	return nil
}
