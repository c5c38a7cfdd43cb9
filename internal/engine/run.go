package engine

import (
	"context"
	"slices"
	"time"

	"piccolo/internal/algorithms"
)

// pair is one materialized contribution in the sparse scatter phase.
type pair struct {
	dst     uint32
	contrib uint64
}

// runState is everything one run mutates: the per-vertex accumulators, the
// frontier, the per-shard and per-chunk scratch, the direction-heuristic
// state and the run's own options. It is sized for one Engine's vertex and
// shard counts and reused, through the free list that engine shares with the
// versions derived from it (Advance), by one run at a time — e is the engine
// of the current run, nil while parked; the buffers grow on first use and
// stay (≈ 30 B/vertex once every path has run). A state
// is clean between runs: each phase clears the marks it set, cancellation
// happens only between supersteps, and a state whose run panicked is never
// parked (Engine.RunCtx).
type runState struct {
	e    *Engine
	opts RunOptions
	// width is the phase width of the current superstep, re-read at every
	// superstep boundary by the run's own goroutine and read by nothing
	// else, so resizing a run needs no synchronization and — every width
	// being bit-identical — cannot change its result.
	width int

	// Direction-heuristic state of early-exit pull loops (autoPull).
	curPull bool   // current direction (hysteresis)
	remIn   uint64 // remaining in-edges estimate (m_u)

	vtemp    []uint64
	updated  []bool
	active   *bitmap  // frontier bitmap view (source-walk stream + bitmap pull iterations)
	contrib  []uint64 // per-source values (dense-pull contributions, masked-pull sources)
	frontier []uint32
	touched  [][]uint32 // per shard: destinations with contributions
	next     [][]uint32 // per shard: activated vertices (sorted)
	buckets  [][][]pair // [chunk][shard] scatter buckets (CSR-backed engines only)
	shardCnt []uint64   // edges processed per dense shard
	moved    []bool     // per-shard dense convergence flag
	scanned  []bool     // per shard: the sparse apply took the ordered range walk

	// scatterMark is the scatter→gather boundary timestamp of the last
	// scatter-strategy iteration, recorded only while tracing (written
	// between phase barriers by the run's goroutine, never by workers).
	scatterMark time.Time
	// indexBuild is the time this run spent in (or blocked on) a lazy index
	// build since its last superstep span; traceStep moves it into the span
	// as index_build_ns.
	indexBuild time.Duration
}

func newRunState(e *Engine) *runState {
	return &runState{
		e:        e,
		vtemp:    make([]uint64, e.v),
		updated:  make([]bool, e.v),
		touched:  make([][]uint32, e.shards),
		next:     make([][]uint32, e.shards),
		shardCnt: make([]uint64, e.shards),
		moved:    make([]bool, e.shards),
		scanned:  make([]bool, e.shards),
	}
}

// run executes one kernel on this state.
func (rs *runState) run(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts RunOptions) (*Result, error) {
	e := rs.e
	rs.opts = opts
	w := opts.Workers
	if w <= 0 {
		w = e.workers
	}
	rs.width = clampWorkers(w)
	prop, active := k.Init(e.v, src)
	res := &Result{}
	identity := k.Identity()
	for i := range rs.vtemp {
		rs.vtemp[i] = identity
	}
	// Direction-heuristic state is per-run: start push with the full
	// in-edge mass unconsumed (performance-only — the choice never
	// affects result bits).
	rs.curPull = false
	rs.remIn = e.nEdges
	rs.indexBuild = 0
	var err error
	if k.Descriptor().AllActive {
		err = rs.runDense(ctx, k, prop, active, maxIters, res)
	} else {
		err = rs.runSparse(ctx, k, prop, active, maxIters, res)
	}
	if err != nil {
		return res, err
	}
	res.Prop = prop
	return res, nil
}

// boundary is the superstep boundary: the run's only cancellation point
// (every phase behind it has completed and reset its scratch) and the only
// place its width changes.
func (rs *runState) boundary(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if rs.opts.Width != nil {
		rs.width = clampWorkers(rs.opts.Width())
	}
	superstepsAtWidth[min(rs.width, maxCountedWidth)].Add(1)
	return nil
}

func (rs *runState) parallelDo(tasks int, fn func(int)) {
	parallelDo(rs.width, tasks, fn)
}

// forced returns the direction the test hook pins for this iteration, or
// DirAuto when there is no hook or it defers.
func (rs *runState) forced(iter int) Direction {
	if rs.opts.forceStrategy == nil {
		return DirAuto
	}
	return rs.opts.forceStrategy(iter)
}

// runDense is the AllActive (PR-style) mode: every iteration computes all
// active sources' contributions — pull (the default: cache-blocked CSC
// tiles, per-destination register accumulation) or push (forced DirPush:
// each shard streams its dense sub-CSR) — then applies over the owned
// vertex ranges. Both directions replay the reference fold order, so the
// choice never affects result bits.
func (rs *runState) runDense(ctx context.Context, k algorithms.Kernel, prop []uint64, active []bool, maxIters int, res *Result) error {
	e := rs.e
	identity := k.Identity()

	anyActive := false
	allActive := true
	for _, a := range active {
		if a {
			anyActive = true
		} else {
			allActive = false
		}
	}
	// act == nil means every source is active, which holds from the second
	// iteration on (the reference re-activates every vertex while any
	// property moves); the first iteration honors Init's flags.
	act := active
	if allActive {
		act = nil
	}

	fp := fastOpsFor(k)
	trace := rs.opts.Trace

	for iter := 0; iter < maxIters && anyActive; iter++ {
		if err := rs.boundary(ctx); err != nil {
			return err
		}
		res.Iterations++
		// Dense iterations touch every in-edge either way; pull's tiled
		// sequential accumulation wins unless the caller forced push, so
		// there is no heuristic to run — only the force hooks.
		usePull := e.dir != DirPush
		if d := rs.forced(iter); d != DirAuto {
			usePull = d == DirPull
		}
		var tStart time.Time
		activeSrcs := -1
		if trace != nil {
			if act != nil {
				activeSrcs = 0
				for _, a := range act {
					if a {
						activeSrcs++
					}
				}
			} else {
				activeSrcs = int(e.v)
			}
			tStart = time.Now()
		}
		if usePull {
			superstepsPull.Add(1)
			rs.denseContribPull(k, fp, prop, act)
		} else {
			superstepsPush.Add(1)
			rs.denseContribPush(k, fp, prop, act)
		}
		var tContrib time.Time
		if trace != nil {
			tContrib = time.Now()
		}
		rs.parallelDo(e.shards, func(s int) {
			moved := false
			for v := e.bounds[s]; v < e.bounds[s+1]; v++ {
				newProp := k.Apply(prop[v], rs.vtemp[v])
				if !k.Converged(prop[v], newProp) {
					moved = true
				}
				prop[v] = newProp
				rs.vtemp[v] = identity
			}
			rs.moved[s] = moved
		})
		var iterEdges uint64
		for s := 0; s < e.shards; s++ {
			iterEdges += rs.shardCnt[s]
		}
		res.EdgeVisits += iterEdges
		anyActive = slices.Contains(rs.moved, true)
		act = nil
		if trace != nil {
			now := time.Now()
			strategy, contribKey := "push", "stream_ns"
			if usePull {
				strategy, contribKey = "pull", "pull_ns"
			}
			rs.traceStep(tStart, now, map[string]any{
				"iter":     iter,
				"mode":     "dense",
				"strategy": strategy,
				"frontier": activeSrcs,
				"edges":    iterEdges,
				"shards":   e.shards,
				"width":    rs.width,
				contribKey: tContrib.Sub(tStart).Nanoseconds(),
				"apply_ns": now.Sub(tContrib).Nanoseconds(),
			})
		}
	}
	return nil
}

// traceStep records one superstep span. A superstep that built a lazy index,
// or waited for another run to, says so in index_build_ns: that time sits
// inside its contribution phase (pull_ns or stream_ns) and is not traversal.
func (rs *runState) traceStep(start, end time.Time, attrs map[string]any) {
	if rs.indexBuild > 0 {
		attrs["index_build_ns"] = rs.indexBuild.Nanoseconds()
		rs.indexBuild = 0
	}
	rs.opts.Trace.Add("superstep", start, end.Sub(start), attrs)
}

// denseContribPush is the source-centric dense contribution phase: each
// shard streams its destination-sharded sub-CSR in ascending source order.
func (rs *runState) denseContribPush(k algorithms.Kernel, fp *fastOps, prop []uint64, act []bool) {
	e := rs.e
	dense := rs.denseViews().shards
	fastDense := fp != nil && fp.dense != nil
	rs.parallelDo(e.shards, func(s int) {
		ds := &dense[s]
		vtemp := rs.vtemp
		var cnt uint64
		for i, u := range ds.srcs {
			if act != nil && !act[u] {
				continue
			}
			deg := e.outDeg(u)
			pu := prop[u]
			lo, hi := ds.rowPtr[i], ds.rowPtr[i+1]
			if fastDense {
				fp.dense(vtemp, ds.col[lo:hi], ds.weight[lo:hi], pu, deg)
			} else {
				for j := lo; j < hi; j++ {
					v := ds.col[j]
					vtemp[v] = k.Reduce(vtemp[v], k.Process(ds.weight[j], pu, deg))
				}
			}
			cnt += uint64(hi - lo)
		}
		rs.shardCnt[s] = cnt
	})
}

// runSparse is the frontier mode. Each iteration first picks a traversal
// direction — push (source-centric) or pull (destination-centric CSC fold
// restricted to the frontier) — then, within push, one of two bit-identical
// contribution strategies: materialized scatter-gather for the thin
// frontiers of a CSR-backed engine, a direct fold of the sub-CSRs for fat
// frontiers and for every frontier of a store-backed one (the iPregel-style
// frontier-aware switch). Apply and frontier rebuild are shared by every
// path.
func (rs *runState) runSparse(ctx context.Context, k algorithms.Kernel, prop []uint64, active []bool, maxIters int, res *Result) error {
	e := rs.e
	identity := k.Identity()
	fp := fastOpsFor(k)
	trace := rs.opts.Trace

	frontier := rs.frontier[:0]
	for v := uint32(0); v < e.v; v++ {
		if active[v] {
			frontier = append(frontier, v)
		}
	}
	// Keep the (possibly regrown) backing array for the next run.
	defer func() { rs.frontier = frontier }()

	for iter := 0; iter < maxIters && len(frontier) > 0; iter++ {
		if err := rs.boundary(ctx); err != nil {
			return err
		}
		res.Iterations++

		// Every strategy processes exactly the out-edges of the frontier
		// (pull tests each in-edge's source against the frontier bitmap,
		// which selects the same edge set), folding each destination's
		// contributions in the same ascending (source, edge-index) order,
		// so edge accounting and results are identical; only the constant
		// factors differ.
		var frontierEdges uint64
		for _, u := range frontier {
			frontierEdges += uint64(e.outDeg(u))
		}
		res.EdgeVisits += frontierEdges

		var usePull bool
		switch d := rs.forced(iter); {
		case d != DirAuto:
			usePull = d == DirPull
		case e.dir != DirAuto:
			usePull = e.dir == DirPull
		default:
			usePull = rs.autoPull(fp, len(frontier), frontierEdges)
		}

		var tStart time.Time
		if trace != nil {
			tStart = time.Now()
		}
		strategy, path, walk := "push", "scatter", ""
		if usePull {
			superstepsPull.Add(1)
			strategy, path = "pull", "pull"
			rs.pullContributions(k, fp, prop, frontier)
		} else {
			superstepsPush.Add(1)
			if rs.streamWorthwhile(frontierEdges) {
				path = "stream"
				walk = rs.streamContributions(k, fp, prop, frontier)
			} else {
				rs.scatterContributions(k, fp, prop, frontier, frontierEdges)
			}
		}
		var tContrib time.Time
		if trace != nil {
			tContrib = time.Now()
		}

		rs.applySparse(k, prop, identity)

		// Shards own ascending destination ranges, so concatenating their
		// ascending activation lists in shard order yields the next frontier
		// already sorted ascending.
		fsize := len(frontier)
		frontier = frontier[:0]
		for s := 0; s < e.shards; s++ {
			frontier = append(frontier, rs.next[s]...)
		}
		if trace != nil {
			now := time.Now()
			scanShards := 0
			for _, scan := range rs.scanned {
				if scan {
					scanShards++
				}
			}
			attrs := map[string]any{
				"iter":              iter,
				"mode":              "sparse",
				"strategy":          strategy,
				"path":              path,
				"frontier":          fsize,
				"edges":             frontierEdges,
				"shards":            e.shards,
				"width":             rs.width,
				"apply_ns":          now.Sub(tContrib).Nanoseconds(),
				"apply_scan_shards": scanShards,
			}
			switch path {
			case "pull":
				attrs["pull_ns"] = tContrib.Sub(tStart).Nanoseconds()
			case "stream":
				attrs["stream_ns"] = tContrib.Sub(tStart).Nanoseconds()
				attrs["walk"] = walk
			default:
				attrs["scatter_ns"] = rs.scatterMark.Sub(tStart).Nanoseconds()
				attrs["gather_ns"] = tContrib.Sub(rs.scatterMark).Nanoseconds()
			}
			rs.traceStep(tStart, now, attrs)
		}
	}
	return nil
}

// autoPull is the per-iteration direction choice of auto mode (DESIGN.md
// §12). What a pull iteration costs depends on whether the kernel's pull
// loop can leave a row early, which the registered loop declares
// (fastOps.pullExitsEarly) — the engine never asks which kernel it runs.
//
// A loop that exits early (one active in-neighbour settles a destination,
// and a settled destination is skipped) scans far fewer than E in-edges
// once the frontier is fat, so it gets Beamer's rule with hysteresis: in
// push mode, switch to pull when the frontier's out-edge sum m_f exceeds
// the remaining-in-edge estimate m_u / Alpha; in pull mode, switch back to
// push when the frontier shrinks below V / Beta. m_u starts at E each run
// and decays by the processed out-edge mass, floored at E/64 so a
// re-fattening late frontier still compares against something.
//
// Every other pull loop scans all E in-edges whatever the frontier holds,
// so pull is cheaper exactly when E in-edges at the loop's cost per in-edge
// undercut m_f frontier edges at push's cost per frontier edge, with nothing
// to remember between iterations — no hysteresis. The generic and bitmap
// loops pay a frontier test per in-edge, about two thirds of a push edge:
// pull when 1.5·m_f > E. A masked fold (fastOps.maskedPull) pays no test and
// runs at about a quarter of a push edge: pull when 4·m_f > E (the ns/edge
// table behind both constants is in DESIGN.md §12).
//
// All three rules are deliberately crude: they tune constants only, never
// bits.
func (rs *runState) autoPull(fp *fastOps, frontierLen int, frontierEdges uint64) bool {
	e := rs.e
	switch {
	case fp != nil && fp.maskedPull != nil:
		return maskedPullGain*frontierEdges > e.nEdges
	case fp == nil || !fp.pullExitsEarly:
		return 3*frontierEdges > 2*e.nEdges
	}
	if rs.curPull {
		if uint64(frontierLen)*e.beta < uint64(e.v) {
			rs.curPull = false
		}
	} else if frontierEdges*e.alpha > rs.remIn {
		rs.curPull = true
	}
	if rs.remIn > frontierEdges {
		rs.remIn -= frontierEdges
	} else {
		rs.remIn = 0
	}
	if floor := e.nEdges / 64; rs.remIn < floor {
		rs.remIn = floor
	}
	return rs.curPull
}

// maskedPullGain is how many push edges one masked-fold in-edge is worth in
// autoPull's comparison.
const maskedPullGain = 4

// applyScanDensity is the apply phase's switch: a shard whose touched list
// holds at least 1/applyScanDensity of its range walks the range in order
// (one byte test per vertex) instead of sorting what it activated.
const applyScanDensity = 8

// applySparse is the sparse apply phase: every shard applies its touched
// vertices and leaves the ones whose property moved in next[s], ascending.
// touched[s] is in first-contribution order, which no path makes ascending.
// A shard whose touched list is dense in its range walks the range's updated
// marks instead — ascending by construction, no sort; a sparse one walks the
// list and sorts what it activated. Both visit exactly the touched vertices,
// so next[s] is the same list either way.
func (rs *runState) applySparse(k algorithms.Kernel, prop []uint64, identity uint64) {
	e := rs.e
	rs.parallelDo(e.shards, func(s int) {
		lo, hi := e.bounds[s], e.bounds[s+1]
		touched := rs.touched[s]
		next := rs.next[s][:0]
		scan := applyScanDensity*len(touched) >= int(hi-lo)
		if rs.opts.forceApplyScan != nil {
			scan = *rs.opts.forceApplyScan
		}
		if scan {
			for v := lo; v < hi; v++ {
				if rs.updated[v] {
					next = rs.applyVertex(k, prop, identity, v, next)
				}
			}
		} else {
			for _, v := range touched {
				next = rs.applyVertex(k, prop, identity, v, next)
			}
			slices.Sort(next)
		}
		rs.scanned[s] = scan
		rs.next[s] = next
	})
}

// applyVertex applies one touched vertex, appends it to next if its property
// moved, and resets its accumulator and mark for the next superstep.
func (rs *runState) applyVertex(k algorithms.Kernel, prop []uint64, identity uint64, v uint32, next []uint32) []uint32 {
	newProp := k.Apply(prop[v], rs.vtemp[v])
	if !k.Converged(prop[v], newProp) {
		prop[v] = newProp
		next = append(next, v)
	}
	rs.vtemp[v] = identity
	rs.updated[v] = false
	return next
}

// streamWorthwhile decides when streaming the sub-CSRs beats materializing
// contributions. A store-backed engine always streams: fetching a row from a
// segment decodes a whole block, while the sub-CSRs hold every row decoded,
// so the engine reads its store only to build its indexes. On a CSR, whose
// rows are free, the streaming pass pays one active-flag check per sub-CSR
// source entry, so it wins once the frontier's edge count exceeds that
// fixed scan cost; before the sub-CSRs exist their size is estimated at V.
// The choice affects performance only — both paths are bit-identical — so
// it is free to differ across worker counts and across concurrent runs
// (one of which may see the index a moment before another).
func (rs *runState) streamWorthwhile(frontierEdges uint64) bool {
	if rs.e.g == nil {
		return true
	}
	if d := rs.e.dense.Load(); d != nil {
		return frontierEdges > d.srcsTotal
	}
	return frontierEdges > uint64(rs.e.v)
}

// frontierWalkGap is the stream path's switch: a frontier at least this many
// times shorter than the average shard source list is looked up in the list
// (frontier walk); a longer one is tested against while the list is scanned
// (source walk). A gallop costs about as much as scanning sixteen entries
// (DESIGN.md §9 has the measured crossover).
const frontierWalkGap = 16

// streamContributions is the sub-CSR push strategy: every shard folds the
// frontier's rows of its own sub-CSR straight into Vtemp — no
// materialization. It finds those rows by one of two walks and reports which
// ("frontier" or "sources"): a frontier much shorter than the source lists
// gallops through each shard's ascending source list once, vertex by
// vertex, so a thin superstep costs its frontier and not the lists; a
// fatter one scans the lists against the frontier bitmap. Either way a
// shard visits its active sources in ascending order, so the
// per-destination fold order is the reference order.
func (rs *runState) streamContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, frontier []uint32) (walk string) {
	e := rs.e
	dense := rs.denseViews()
	byFrontier := frontierWalkGap*uint64(len(frontier))*uint64(e.shards) < dense.srcsTotal
	if rs.opts.forceFrontierWalk != nil {
		byFrontier = *rs.opts.forceFrontierWalk
	}
	if byFrontier {
		rs.parallelDo(e.shards, func(s int) {
			ds := &dense.shards[s]
			touched := rs.touched[s][:0]
			i := 0
			for _, u := range frontier {
				i += gallop(ds.srcs[i:], u)
				if i == len(ds.srcs) {
					break
				}
				if ds.srcs[i] == u {
					touched = rs.streamRow(k, fp, prop, ds, i, touched)
					i++
				}
			}
			rs.touched[s] = touched
		})
		return "frontier"
	}
	active := rs.markFrontier(frontier)
	rs.parallelDo(e.shards, func(s int) {
		ds := &dense.shards[s]
		touched := rs.touched[s][:0]
		for i, u := range ds.srcs {
			if active[u>>6]&(uint64(1)<<(u&63)) != 0 {
				touched = rs.streamRow(k, fp, prop, ds, i, touched)
			}
		}
		rs.touched[s] = touched
	})
	rs.active.clearAll(frontier)
	return "sources"
}

// streamRow folds source ds.srcs[i]'s in-shard row into Vtemp with
// first-touch tracking and returns the grown touched list.
func (rs *runState) streamRow(k algorithms.Kernel, fp *fastOps, prop []uint64, ds *denseShard, i int, touched []uint32) []uint32 {
	u := ds.srcs[i]
	deg := rs.e.outDeg(u)
	pu := prop[u]
	lo, hi := ds.rowPtr[i], ds.rowPtr[i+1]
	if fp != nil && fp.stream != nil {
		return fp.stream(rs.vtemp, ds.col[lo:hi], ds.weight[lo:hi], pu, deg, rs.updated, touched)
	}
	for j := lo; j < hi; j++ {
		v := ds.col[j]
		if !rs.updated[v] {
			rs.updated[v] = true
			touched = append(touched, v)
		}
		rs.vtemp[v] = k.Reduce(rs.vtemp[v], k.Process(ds.weight[j], pu, deg))
	}
	return touched
}

// gallop returns the first index i with a[i] >= x, len(a) if there is none,
// for ascending a: it probes 1, 2, 4, … entries ahead, then bisects the last
// stride, so finding an entry d places ahead costs O(log d).
func gallop(a []uint32, x uint32) int {
	if len(a) == 0 || a[0] >= x {
		return 0
	}
	lo, step := 0, 1 // a[lo] < x
	for lo+step < len(a) && a[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(a)) // a[hi] >= x, or hi is the end
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); a[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// markFrontier materializes the frontier as the run's bitmap (allocated on
// first use) and returns its words; the caller clears it with
// rs.active.clearAll(frontier) once the phase is done.
func (rs *runState) markFrontier(frontier []uint32) []uint64 {
	if rs.active == nil {
		rs.active = newBitmap(rs.e.v)
	}
	rs.active.setAll(frontier)
	return rs.active.words
}

// scatterChunkEdges is the adaptive-chunking target: each scatter chunk
// should carry at least this many frontier out-edges, so thin frontiers
// collapse to one chunk (inline execution, no goroutines, one bucket row
// for the gather to scan) instead of paying 4×Workers chunk setups for
// trivial work — the overhead that made added workers slow the thin
// iterations down (BENCH_baseline.json's EngineBFS anti-scaling).
const scatterChunkEdges = 4096

// scatterContributions is the thin-frontier push strategy of CSR-backed
// engines, whose rows cost nothing to fetch: contiguous frontier chunks
// materialize (dst, contribution) pairs into per-(chunk, shard) buckets,
// and each shard folds its buckets in ascending chunk order. Concatenating
// contiguous chunks in index order restores ascending source order no
// matter where the boundaries fall, so the chunk count is free to track the
// phase width and the frontier's edge mass without affecting results.
func (rs *runState) scatterContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, frontier []uint32, frontierEdges uint64) {
	e := rs.e
	g := e.g
	fastScatter := fp != nil && fp.scatter != nil
	fastGather := fp != nil && fp.gather != nil
	chunks := int(frontierEdges/scatterChunkEdges) + 1
	if maxChunks := 4 * rs.width; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks > len(frontier) {
		chunks = len(frontier)
	}
	size := (len(frontier) + chunks - 1) / chunks
	chunks = (len(frontier) + size - 1) / size
	for len(rs.buckets) < chunks {
		rs.buckets = append(rs.buckets, make([][]pair, e.shards))
	}

	rs.parallelDo(chunks, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > len(frontier) {
			hi = len(frontier)
		}
		bk := rs.buckets[c]
		for s := range bk {
			bk[s] = bk[s][:0]
		}
		for _, u := range frontier[lo:hi] {
			dsts, ws := g.Neighbors(u)
			deg := uint32(len(dsts))
			pu := prop[u]
			if fastScatter {
				fp.scatter(bk, e.owner, dsts, ws, pu, deg)
				continue
			}
			for i, v := range dsts {
				s := e.owner[v]
				bk[s] = append(bk[s], pair{v, k.Process(ws[i], pu, deg)})
			}
		}
	})
	if rs.opts.Trace != nil {
		rs.scatterMark = time.Now()
	}

	rs.parallelDo(e.shards, func(s int) {
		touched := rs.touched[s][:0]
		vtemp := rs.vtemp
		for c := 0; c < chunks; c++ {
			b := rs.buckets[c][s]
			if fastGather {
				touched = fp.gather(vtemp, b, rs.updated, touched)
				continue
			}
			for _, p := range b {
				if !rs.updated[p.dst] {
					rs.updated[p.dst] = true
					touched = append(touched, p.dst)
				}
				vtemp[p.dst] = k.Reduce(vtemp[p.dst], p.contrib)
			}
		}
		rs.touched[s] = touched
	})
}
