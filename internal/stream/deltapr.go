package stream

import (
	"fmt"
	"math"

	"piccolo/internal/algorithms"
)

// Delta-PageRank: an incrementally maintained estimate of a PageRank
// linear system p = t + d·AᵀD⁻¹p (damping d = 0.85), kept as a
// (estimate p, residual r) pair with the invariant that p plus the
// fully-propagated residual equals the exact solution. The teleport vector
// t selects the variant: uniform (1-d)·1 is the paper's sum-to-N global
// PageRank; a single (1-d) at one vertex is personalized PageRank from
// that source — both flow through the same state, absorb and push code,
// keyed per teleport. Edge insertions adjust the residuals of the affected
// destinations in O(deg(src)) per touched source; a query pushes residuals
// until every |r[v]| <= eps, which bounds the L1 error of the estimate by
// Σ|r| / (1-d).
//
// This is the classic Gauss–Seidel push scheme (Berkhin's "bookmark
// coloring", the delta-PR of GraphBolt/KickStarter-style systems): exact
// with respect to the linear system, approximate with respect to the
// reference executor's truncated power iteration — which is why the exact
// QueryCtx path never uses it. It is the RepairResidual strategy the pr and
// ppr descriptors declare (DESIGN.md §10, §15).

const prDamping = 0.85

// DefaultPREps is the default residual threshold of ApproxPageRank and
// ApproxPersonalizedPageRank.
const DefaultPREps = 1e-9

// prGlobal is the prs key of the uniform-teleport (global PageRank) state;
// personalized states are keyed by their (resolved) source vertex.
const prGlobal = int64(-1)

// maxPRStates bounds the per-engine delta-PR memo across teleport vectors;
// like the kernel-state memo, eviction is arbitrary and only costs a
// future from-scratch push pass, never correctness (a fresh state's
// residuals encode the full linear system at the current version).
const maxPRStates = 16

// prState carries one persistent delta-PR estimate.
type prState struct {
	p, r []float64
	// queue/inQueue form the push worklist; vertices with |r| above the
	// active eps are queued.
	queue   []uint32
	inQueue []bool
}

// prInit builds the state for one teleport vector from scratch at the
// current version: p = 0 and r = the teleport mass — (1-d) everywhere for
// the global key, (1-d) at the source alone for a personalized one — so
// one full push pass reconstructs the solution. This is the only
// O(V+E·log 1/eps) step; every subsequent update is incremental.
func (d *DynamicEngine) prInit(key int64) *prState {
	v := d.ov.V()
	st := &prState{
		p:       make([]float64, v),
		r:       make([]float64, v),
		inQueue: make([]bool, v),
	}
	if key == prGlobal {
		for i := range st.r {
			st.r[i] = 1 - prDamping
		}
	} else {
		st.r[key] = 1 - prDamping
	}
	if len(d.prs) >= maxPRStates {
		for k := range d.prs { // arbitrary eviction
			delete(d.prs, k)
			break
		}
	}
	d.prs[key] = st
	return st
}

// prAbsorbBatch folds one just-applied batch into every live state's
// residuals. For each distinct source u of the batch, u's settled mass
// p[u] was distributed as d·p[u]/degOld to each pre-batch out-edge; the
// truth is now d·p[u]/degNew to each of degNew edges. The difference lands
// in the residuals of u's neighbors: old neighbors gain
// d·p[u]·(1/degNew − 1/degOld), new ones gain d·p[u]/degNew. Must be
// called with the batch already applied to the overlay (ApplyUpdates
// does), and exactly once per batch — it reconstructs degOld from the
// batch's own edge counts. The adjustment depends on the teleport vector
// only through p, so the same fold serves global and personalized states.
func (d *DynamicEngine) prAbsorbBatch(batch []EdgeUpdate) {
	added := map[uint32]uint32{}
	for _, e := range batch {
		added[e.Src]++
	}
	for _, st := range d.prs {
		for u, n := range added {
			degNew := d.ov.OutDeg(u)
			degOld := degNew - n
			pu := st.p[u]
			if pu == 0 {
				continue // no settled mass to redistribute
			}
			if degOld > 0 {
				adj := prDamping * pu * (1/float64(degNew) - 1/float64(degOld))
				i := uint32(0)
				d.ov.EachEdge(u, func(v uint32, _ uint8) {
					// The first degOld slots of the row are the pre-batch
					// edges only if the batch's own edges sit at the tail of
					// the delta row — they do (Apply appends), but earlier
					// batches' edges are interleaved with base edges only in
					// the materialized view, never in EachEdge order. Apply
					// the old-edge adjustment to every edge except this
					// batch's own n tail entries.
					if i < degNew-n {
						st.r[v] += adj
					}
					i++
				})
			}
			nw := prDamping * pu / float64(degNew)
			// This batch's own edges are the tail of u's delta row.
			row := d.ov.delta[u]
			for _, e := range row[len(row)-int(n):] {
				st.r[e.dst] += nw
			}
		}
	}
}

// ApproxPageRank returns the global delta-PageRank estimate at the current
// version, pushing residuals until every |r| <= eps (eps <= 0 selects
// DefaultPREps). The returned slice is a copy in the reference
// formulation's scale (ranks sum to ~V). The estimate tracks the linear
// system, not the reference's truncated iteration: expect agreement to
// roughly eps·V/(1-d) plus the reference's own convergence slack, not bit
// equality — exact pr queries go through QueryCtx.
func (d *DynamicEngine) ApproxPageRank(eps float64) ([]float64, QueryInfo, error) {
	return d.approxPR(prGlobal, eps)
}

// ApproxPersonalizedPageRank returns the personalized delta-PageRank
// estimate for one source at the current version — the residual repair
// path the ppr kernel's descriptor declares. src is resolved like a query
// source (negative or out-of-range selects the highest-out-degree vertex);
// ranks sum to ~1 (walks restart at src with probability 1-d), and
// vertices unreachable from src stay at exactly 0. Each distinct source
// keeps its own (estimate, residual) state, absorbed incrementally on
// every update batch; exact ppr queries go through QueryCtx.
func (d *DynamicEngine) ApproxPersonalizedPageRank(src int64, eps float64) ([]float64, QueryInfo, error) {
	k, err := algorithms.New("ppr")
	if err != nil {
		return nil, QueryInfo{}, err
	}
	d.mu.Lock()
	s := int64(d.resolveSrc(k.Descriptor(), src))
	d.mu.Unlock()
	return d.approxPR(s, eps)
}

func (d *DynamicEngine) approxPR(key int64, eps float64) ([]float64, QueryInfo, error) {
	if eps <= 0 {
		eps = DefaultPREps
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ov.V() == 0 {
		return nil, QueryInfo{}, fmt.Errorf("stream: query on empty graph")
	}
	st := d.prs[key]
	if st == nil {
		st = d.prInit(key)
	}
	// Seed the worklist with every vertex whose residual exceeds eps.
	// FIFO order matters: it drains residual generations breadth-first,
	// so total work is O((V+E)·log(mass/eps)); LIFO order degenerates to
	// O(mass/eps) pushes of eps-sized residuals.
	st.queue = st.queue[:0]
	for v, r := range st.r {
		if math.Abs(r) > eps {
			st.queue = append(st.queue, uint32(v))
			st.inQueue[v] = true
		}
	}
	var pushes uint64
	for head := 0; head < len(st.queue); head++ {
		u := st.queue[head]
		st.inQueue[u] = false
		r := st.r[u]
		if math.Abs(r) <= eps {
			continue
		}
		pushes++
		st.p[u] += r
		st.r[u] = 0
		deg := d.ov.OutDeg(u)
		if deg == 0 {
			continue // dangling: the reference formulation drops the mass
		}
		out := prDamping * r / float64(deg)
		d.ov.EachEdge(u, func(v uint32, _ uint8) {
			st.r[v] += out
			if math.Abs(st.r[v]) > eps && !st.inQueue[v] {
				st.inQueue[v] = true
				st.queue = append(st.queue, v)
			}
		})
	}
	st.queue = st.queue[:0]
	d.stats.DeltaPRQueries++
	d.stats.DeltaPRPushes += pushes
	out := make([]float64, len(st.p))
	copy(out, st.p)
	return out, QueryInfo{
		Version:     d.ov.Version(),
		Edges:       d.ov.E(),
		Mode:        "incremental",
		RepairEdges: pushes,
	}, nil
}
