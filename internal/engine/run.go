package engine

import (
	"context"
	"math/bits"
	"slices"
	"time"

	"piccolo/internal/algorithms"
)

// runState is everything one run mutates: the per-vertex accumulators, the
// frontier, the per-shard scratch and the run's own options. It is sized for
// one Engine's vertex and shard counts and reused, through the free list
// that engine shares with the versions derived from it (Advance), by one run
// at a time — e is the engine of the current run, nil while parked; the
// buffers grow on first use and stay (≈ 24 B/vertex once every path has
// run). A state is clean between runs: each phase clears the marks it set,
// cancellation happens only between supersteps, and a state whose run
// panicked is never parked (Engine.RunCtx).
type runState struct {
	e    *Engine
	opts RunOptions
	// width is the phase width of the current superstep, re-read at every
	// superstep boundary by the run's own goroutine and read by nothing
	// else, so resizing a run needs no synchronization and — every width
	// being bit-identical — cannot change its result.
	width int

	vtemp    []uint64
	touched  []uint64   // one bit per destination with contributions; shard s owns words shardWords(s)
	active   bitmap     // frontier bitmap view (bitmap pull iterations)
	contrib  []uint64   // per-source values (dense-pull contributions, masked-pull sources)
	frontier []uint32   // a sparse run's frontier, ascending
	next     [][]uint32 // per shard: activated vertices (ascending)
	shardCnt []uint64   // edges processed per dense shard
	moved    []bool     // per-shard dense convergence flag
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

// step is what one superstep hands back to the loop around it.
type step struct {
	edges     uint64    // edges folded (EdgeVisits)
	pull      bool      // direction taken
	folded    time.Time // end of the traversal phase, when traced
	nextCount int       // vertices active in the next superstep; 0 ends the run
}

// run executes one kernel on this state. Both modes share one superstep
// loop — the boundary check, the iteration and edge accounting, the
// direction counters and the superstep span — and differ only in the step
// between them: an AllActive (PR-style) kernel takes denseStep, a frontier
// kernel sparseStep.
func (rs *runState) run(ctx context.Context, k algorithms.Kernel, src uint32, maxIters int, opts RunOptions) (*Result, error) {
	e := rs.e
	rs.opts = opts
	rs.width = clampWorkers(e.workers)
	prop, active := k.Init(e.v, src)
	identity := k.Identity()
	for i := range rs.vtemp {
		rs.vtemp[i] = identity
	}
	fp := fastOpsFor(k)
	dense := k.Descriptor().AllActive

	// count is the number of vertices active in the coming superstep. A
	// dense run's first step honors Init's flags (act); from the second on
	// every source is active (act == nil), as the reference re-activates
	// every vertex while any property moves. A sparse run's frontier is the
	// ascending list of its active vertices.
	var act []bool
	count := 0
	if dense {
		for _, a := range active {
			if a {
				count++
			}
		}
		if count < int(e.v) {
			act = active
		}
	} else {
		rs.frontier = rs.frontier[:0]
		for v, a := range active {
			if a {
				rs.frontier = append(rs.frontier, uint32(v))
			}
		}
		count = len(rs.frontier)
	}

	res := &Result{}
	for iter := 0; iter < maxIters && count > 0; iter++ {
		if err := rs.boundary(ctx); err != nil {
			return res, err
		}
		res.Iterations++
		start := rs.stamp()
		var st step
		if dense {
			st = rs.denseStep(k, fp, prop, act)
			act = nil
		} else {
			st = rs.sparseStep(k, fp, prop, iter)
		}
		res.EdgeVisits += st.edges
		if st.pull {
			superstepsPull.Add(1)
		} else {
			superstepsPush.Add(1)
		}
		if rs.opts.Trace != nil {
			rs.traceStep(iter, dense, count, start, &st)
		}
		count = st.nextCount
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

// stamp reads the clock for the superstep span; an untraced run reads
// nothing.
func (rs *runState) stamp() time.Time {
	if rs.opts.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// denseStep is the AllActive step: it pulls every active source's
// contributions — cache-blocked CSC tiles, per-destination register
// accumulation, in the reference fold order — then applies over the owned
// vertex ranges. A dense step touches every in-edge, so pull's tiled
// sequential accumulation always wins and there is no direction to choose.
func (rs *runState) denseStep(k algorithms.Kernel, fp *fastOps, prop []uint64, act []bool) step {
	e := rs.e
	identity := k.Identity()
	rs.denseContribPull(k, fp, prop, act)
	st := step{pull: true, folded: rs.stamp()}
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
	for _, n := range rs.shardCnt {
		st.edges += n
	}
	if slices.Contains(rs.moved, true) {
		st.nextCount = int(e.v)
	}
	return st
}

// sparseStep is the frontier step: it picks a traversal direction — push (a
// fold of the frontier's rows) or pull (a CSC fold restricted to the
// frontier) — then applies the touched vertices and gathers the next frontier
// into rs.frontier.
func (rs *runState) sparseStep(k algorithms.Kernel, fp *fastOps, prop []uint64, iter int) step {
	e := rs.e
	frontier := rs.frontier
	// Both directions process exactly the out-edges of the frontier (pull
	// tests each in-edge's source against the frontier, which selects the
	// same edge set), folding each destination's contributions in the same
	// ascending (source, edge-index) order, so edge accounting and results
	// are identical; only the constant factors differ.
	degs := e.pull.degs
	var st step
	for _, u := range frontier {
		st.edges += uint64(degs[u])
	}
	st.pull = autoPull(fp, st.edges, e.nEdges)
	if rs.opts.forceStrategy != nil {
		if d := rs.opts.forceStrategy(iter); d != dirAuto {
			st.pull = d == dirPull
		}
	}
	if st.pull {
		rs.pullContributions(k, fp, prop, frontier)
	} else {
		rs.streamContributions(k, fp, prop, degs, frontier)
	}
	st.folded = rs.stamp()

	rs.applySparse(k, prop, k.Identity())

	// Shards own ascending destination ranges, so concatenating their
	// ascending activation lists in shard order yields the next frontier
	// already sorted ascending.
	frontier = frontier[:0]
	for _, next := range rs.next {
		frontier = append(frontier, next...)
	}
	rs.frontier = frontier
	st.nextCount = len(frontier)
	return st
}

// traceStep records one superstep span (schema in DESIGN.md §11).
func (rs *runState) traceStep(iter int, dense bool, frontier int, start time.Time, st *step) {
	end := time.Now()
	attrs := map[string]any{
		"iter":     iter,
		"mode":     "sparse",
		"frontier": frontier,
		"edges":    st.edges,
		"shards":   rs.e.shards,
		"width":    rs.width,
		"apply_ns": end.Sub(st.folded).Nanoseconds(),
	}
	if dense {
		attrs["mode"] = "dense"
	}
	if st.pull {
		attrs["strategy"] = "pull"
		attrs["pull_ns"] = st.folded.Sub(start).Nanoseconds()
	} else {
		attrs["strategy"] = "push"
		attrs["stream_ns"] = st.folded.Sub(start).Nanoseconds()
	}
	rs.opts.Trace.Add("superstep", start, end.Sub(start), attrs)
}

// genericPullGain is the pull gain of a kernel that registers no sparse pull
// loop: the generic loop pays a frontier test per in-edge, about two thirds
// of a push edge.
const genericPullGain = 1.5

// autoPull is the direction rule of a sparse superstep (DESIGN.md §12): pull
// iff gain·m_f > E, where m_f is the frontier's out-edge mass, E the graph's
// edge count and gain the cost of one push edge over that of one in-edge of
// the pull loop, as the registered loop declares it (fastOps.pullGain) — the
// engine never asks which kernel it runs. A whole-row loop scans all E
// in-edges whatever the frontier holds; an early-exit loop stops a row at its
// first active source, which its larger gain prices in. It is a pure function
// of its arguments: nothing carries from one superstep to the next. The rule
// tunes constants only, never bits.
func autoPull(fp *fastOps, frontierEdges, edges uint64) bool {
	gain := genericPullGain
	if fp != nil && fp.pullGain > 0 {
		gain = fp.pullGain
	}
	return gain*float64(frontierEdges) > float64(edges)
}

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

// streamContributions is the push phase: the destination space splits into
// one range per phase-width goroutine, each a run of whole shards, and each
// goroutine folds, for every frontier source in ascending order, the run of
// that source's row that lands in its range straight into Vtemp — no
// materialization and no copy of the rows. A row ascends by destination, so
// the run starts at the row's first destination ≥ lo and ends before its
// first ≥ hi, both found by gallop, and multi-edges keep their edge order:
// every destination sees its contributions in the reference order. Ranges of
// whole shards own whole touched-bitmap words (partition), and a goroutine
// per range rather than per shard searches each row once per goroutine: at
// width 1 a row is folded whole, with no search at all.
func (rs *runState) streamContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, degs []uint32, frontier []uint32) {
	e := rs.e
	ranges := min(rs.width, e.shards)
	rs.parallelDo(ranges, func(r int) {
		lo, hi := e.bounds[r*e.shards/ranges], e.bounds[(r+1)*e.shards/ranges]
		for _, u := range frontier {
			col, w := e.row(u)
			a, b := 0, len(col)
			if lo > 0 {
				a = gallop(col, lo)
			}
			if hi < e.v {
				b = a + gallop(col[a:], hi)
			}
			if a < b {
				rs.streamRow(k, fp, prop[u], degs[u], col[a:b], w[a:b])
			}
		}
	})
}

// streamRow folds one source's run of destinations col, with weights w, into
// Vtemp and marks the destinations touched.
func (rs *runState) streamRow(k algorithms.Kernel, fp *fastOps, pu uint64, deg uint32, col []uint32, w []uint8) {
	if fp != nil && fp.stream != nil {
		fp.stream(rs.vtemp, col, w, pu, deg, rs.touched)
		return
	}
	for j, v := range col {
		rs.touched[v>>6] |= uint64(1) << (v & 63)
		rs.vtemp[v] = k.Reduce(rs.vtemp[v], k.Process(w[j], pu, deg))
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
