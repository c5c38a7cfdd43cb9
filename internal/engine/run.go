package engine

import (
	"context"
	"math/bits"
	"slices"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// runState is everything one run mutates: the per-vertex accumulators, the
// frontier, the per-shard scratch, the direction-heuristic state and the
// run's own options. It is sized for one Engine's vertex and
// shard counts and reused, through the free list that engine shares with the
// versions derived from it (Advance), by one run at a time — e is the engine
// of the current run, nil while parked; the buffers grow on first use and
// stay (≈ 24 B/vertex once every path has run). A state
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
	touched  []uint64 // one bit per destination with contributions; shard s owns words shardWords(s)
	active   bitmap   // frontier bitmap view (source-walk stream + bitmap pull iterations)
	contrib  []uint64 // per-source values (dense-pull contributions, masked-pull sources)
	frontier []uint32
	next     [][]uint32 // per shard: activated vertices (ascending)
	shardCnt []uint64   // edges processed per dense shard
	moved    []bool     // per-shard dense convergence flag

	// indexBuild is the time this run spent in (or blocked on) the lazy
	// sub-CSR build since its last superstep span; traceStep moves it into
	// the span as index_build_ns.
	indexBuild time.Duration
}

func newRunState(e *Engine) *runState {
	return &runState{
		e:        e,
		vtemp:    make([]uint64, e.v),
		touched:  newBitmap(e.v),
		next:     make([][]uint32, e.shards),
		shardCnt: make([]uint64, e.shards),
		moved:    make([]bool, e.shards),
	}
}

// run executes one kernel on this state.
func (rs *runState) run(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts RunOptions) (*Result, error) {
	e := rs.e
	rs.opts = opts
	rs.width = clampWorkers(e.workers)
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
// dirAuto when there is no hook or it defers.
func (rs *runState) forced(iter int) direction {
	if rs.opts.forceStrategy == nil {
		return dirAuto
	}
	return rs.opts.forceStrategy(iter)
}

// runDense is the AllActive (PR-style) mode: every iteration pulls all
// active sources' contributions — cache-blocked CSC tiles, per-destination
// register accumulation, in the reference fold order — then applies over
// the owned vertex ranges. Dense iterations touch every in-edge, so pull's
// tiled sequential accumulation always wins and there is no direction
// heuristic to run.
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
		superstepsPull.Add(1)
		rs.denseContribPull(k, fp, prop, act)
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
			rs.traceStep(tStart, now, map[string]any{
				"iter":     iter,
				"mode":     "dense",
				"strategy": "pull",
				"frontier": activeSrcs,
				"edges":    iterEdges,
				"shards":   e.shards,
				"width":    rs.width,
				"pull_ns":  tContrib.Sub(tStart).Nanoseconds(),
				"apply_ns": now.Sub(tContrib).Nanoseconds(),
			})
		}
	}
	return nil
}

// traceStep records one superstep span. A superstep that built the lazy
// sub-CSRs, or waited for another run to, says so in index_build_ns: that
// time sits inside its push phase (stream_ns) and is not traversal.
func (rs *runState) traceStep(start, end time.Time, attrs map[string]any) {
	if rs.indexBuild > 0 {
		attrs["index_build_ns"] = rs.indexBuild.Nanoseconds()
		rs.indexBuild = 0
	}
	rs.opts.Trace.Add("superstep", start, end.Sub(start), attrs)
}

// runSparse is the frontier mode. Each iteration picks a traversal
// direction — push (a fold of the destination-sharded sub-CSRs) or pull
// (a CSC fold restricted to the frontier) — and shares apply and frontier
// rebuild between the two.
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
		var tStart time.Time
		if trace != nil {
			tStart = time.Now()
		}

		// Both directions process exactly the out-edges of the frontier
		// (pull tests each in-edge's source against the frontier bitmap,
		// which selects the same edge set), folding each destination's
		// contributions in the same ascending (source, edge-index) order,
		// so edge accounting and results are identical; only the constant
		// factors differ.
		degs := e.pull.degs
		var frontierEdges uint64
		for _, u := range frontier {
			frontierEdges += uint64(degs[u])
		}
		res.EdgeVisits += frontierEdges

		var usePull bool
		if d := rs.forced(iter); d != dirAuto {
			usePull = d == dirPull
		} else {
			usePull = rs.autoPull(fp, len(frontier), frontierEdges)
		}

		var walk string
		if usePull {
			superstepsPull.Add(1)
			rs.pullContributions(k, fp, prop, frontier)
		} else {
			superstepsPush.Add(1)
			walk = rs.streamContributions(k, fp, prop, degs, frontier)
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
			attrs := map[string]any{
				"iter":     iter,
				"mode":     "sparse",
				"frontier": fsize,
				"edges":    frontierEdges,
				"shards":   e.shards,
				"width":    rs.width,
				"apply_ns": now.Sub(tContrib).Nanoseconds(),
			}
			if usePull {
				attrs["strategy"] = "pull"
				attrs["pull_ns"] = tContrib.Sub(tStart).Nanoseconds()
			} else {
				attrs["strategy"] = "push"
				attrs["stream_ns"] = tContrib.Sub(tStart).Nanoseconds()
				attrs["walk"] = walk
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
// the remaining-in-edge estimate m_u / beamerAlpha; in pull mode, switch
// back to push when the frontier shrinks below V / beamerBeta. m_u starts
// at E each run
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
		if uint64(frontierLen)*beamerBeta < uint64(e.v) {
			rs.curPull = false
		}
	} else if frontierEdges*beamerAlpha > rs.remIn {
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

// applySparse is the sparse apply phase: every shard walks its words of the
// touched bitmap in ascending order, applies each marked vertex, leaves the
// ones whose property moved in next[s] — ascending by construction — and
// zeroes the word and the accumulators for the next superstep. A walk costs
// O(range/64 + touched) whatever the superstep's density.
func (rs *runState) applySparse(k algorithms.Kernel, prop []uint64, identity uint64) {
	rs.parallelDo(rs.e.shards, func(s int) {
		next := rs.next[s][:0]
		lo, hi := rs.e.shardWords(s)
		for w := lo; w < hi; w++ {
			word := rs.touched[w]
			if word == 0 {
				continue
			}
			rs.touched[w] = 0
			for ; word != 0; word &= word - 1 {
				v := w<<6 | uint32(bits.TrailingZeros64(word))
				newProp := k.Apply(prop[v], rs.vtemp[v])
				if !k.Converged(prop[v], newProp) {
					prop[v] = newProp
					next = append(next, v)
				}
				rs.vtemp[v] = identity
			}
		}
		rs.next[s] = next
	})
}

// frontierWalkGap is the push phase's switch: a frontier at least this many
// times shorter than the average shard source list is looked up in the list
// (frontier walk); a longer one is tested against while the list is scanned
// (source walk). A gallop costs about as much as scanning sixteen entries
// (DESIGN.md §9 has the measured crossover).
const frontierWalkGap = 16

// streamContributions is the push phase of every engine: each shard folds
// the frontier's rows of its own sub-CSR straight into Vtemp — no
// materialization. It finds those rows by one of two walks and reports which
// ("frontier" or "sources"): a frontier much shorter than the source lists
// gallops through each shard's ascending source list once, vertex by
// vertex, so a thin superstep costs its frontier and not the lists; a
// fatter one scans the lists against the frontier bitmap. Either way a
// shard visits its active sources in ascending order, so the
// per-destination fold order is the reference order.
func (rs *runState) streamContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, degs []uint32, frontier []uint32) (walk string) {
	e := rs.e
	dense := rs.denseViews()
	byFrontier := frontierWalkGap*uint64(len(frontier))*uint64(e.shards) < dense.srcsTotal
	if rs.opts.forceFrontierWalk != nil {
		byFrontier = *rs.opts.forceFrontierWalk
	}
	if byFrontier {
		rs.parallelDo(e.shards, func(s int) {
			ds := &dense.shards[s]
			i := 0
			for _, u := range frontier {
				i += gallop(ds.Src[i:], u)
				if i == len(ds.Src) {
					break
				}
				if ds.Src[i] == u {
					rs.streamRow(k, fp, prop, degs, ds, i)
					i++
				}
			}
		})
		return "frontier"
	}
	active := rs.markFrontier(frontier)
	rs.parallelDo(e.shards, func(s int) {
		ds := &dense.shards[s]
		for i, u := range ds.Src {
			if active[u>>6]&(uint64(1)<<(u&63)) != 0 {
				rs.streamRow(k, fp, prop, degs, ds, i)
			}
		}
	})
	rs.active.clearAll(frontier)
	return "sources"
}

// streamRow folds source ds.Src[i]'s in-shard row into Vtemp and marks its
// destinations touched.
func (rs *runState) streamRow(k algorithms.Kernel, fp *fastOps, prop []uint64, degs []uint32, ds *graph.Tile, i int) {
	u := ds.Src[i]
	deg := degs[u]
	pu := prop[u]
	lo, hi := ds.EdgeStart[i], ds.EdgeStart[i+1]
	if fp != nil && fp.stream != nil {
		fp.stream(rs.vtemp, ds.Dst[lo:hi], ds.W[lo:hi], pu, deg, rs.touched)
		return
	}
	for j := lo; j < hi; j++ {
		v := ds.Dst[j]
		rs.touched[v>>6] |= uint64(1) << (v & 63)
		rs.vtemp[v] = k.Reduce(rs.vtemp[v], k.Process(ds.W[j], pu, deg))
	}
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
// first use) and returns it; the caller clears it with
// rs.active.clearAll(frontier) once the phase is done.
func (rs *runState) markFrontier(frontier []uint32) bitmap {
	if rs.active == nil {
		rs.active = newBitmap(rs.e.v)
	}
	rs.active.setAll(frontier)
	return rs.active
}
