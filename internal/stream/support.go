package stream

import (
	"context"

	"piccolo/internal/algorithms"
)

// repairSupport advances a support-growth fixed point (the contract of
// algorithms.RepairSupportGrowth: property = threshold<<32 | member bit, the
// converged member set is the greatest one whose members each keep at least
// threshold in-edges from members) from st.version to the current version
// without peeling the graph again.
//
// Why it is exact. Insertions only add in-edges, so the old member set M is
// still self-supporting on the new graph and the new set M' contains it; M'
// is the greatest self-supporting set, hence unique, and the properties are
// determined by it alone. A vertex of M' \ M has in-degree ≥ threshold, and
// it is reachable from the destination of some logged edge along edges that
// stay inside M' \ M: a part U of M' \ M with no such path receives no logged
// edge and no edge from the rest of M' \ M, so M ∪ U was already
// self-supporting on the old graph, and M was not the greatest. So M' \ M
// lies inside the candidate set below, and peeling the candidates against
// M's support leaves exactly M' \ M.
//
// The steps, with support[v] = v's in-edges from members and indeg[v] = v's
// in-degree, both kept current between repairs:
//
//  1. every logged edge with a member source bumps support at its
//     destination;
//  2. the non-member destination of every logged edge with indeg ≥ threshold
//     seeds the candidates — whatever its source is: a self-loop, or an edge
//     between two non-members, can close a cycle that supports itself;
//  3. the candidates are closed over non-member out-neighbours with indeg ≥
//     threshold, counting each one's in-edges from candidates (candIn) — the
//     optimistic assumption that every candidate joins;
//  4. a candidate with support + candIn < threshold is peeled, which takes
//     its out-edges away from the candIn of the candidates still standing,
//     until none is short;
//  5. the survivors get the member bit and bump support along their out-rows.
//
// st.prop is written only in step 5, so a repair canceled on entry or at one
// of the three checkpoints between the steps leaves the properties as they
// were; support may be half-advanced, and the caller discards the state as it
// does for repair. A state's first repair builds its support in one pass over
// the member rows of the current overlay (which already holds the logged
// edges, so step 1 is skipped); that pass is the state's construction, not
// repair work, and a context already canceled on entry abandons the repair
// before either O(V+E) count.
func (d *DynamicEngine) repairSupport(ctx context.Context, st *kernelState, cur uint64) (*algorithms.ReferenceResult, map[string]any, error) {
	if d.inQueue == nil {
		d.inQueue = make([]bool, d.ov.V())
	}
	if d.candIn == nil {
		d.candIn = make([]uint32, d.ov.V())
	}
	prop, candIn, standing := st.prop, d.candIn, d.inQueue
	var indeg, support []uint32 // set by grow after its entry check
	member := func(v uint32) bool { return prop[v]&1 == 1 }
	joinable := func(v uint32) bool { return !member(v) && uint64(indeg[v]) >= prop[v]>>32 }
	short := func(v uint32) bool { return uint64(support[v])+uint64(candIn[v]) < prop[v]>>32 }

	var visited, peeled, joined uint64
	res := &algorithms.ReferenceResult{}
	// A pass is one walk over the candidates: closure, peel, commit.
	pass := func() error {
		res.Iterations++
		return ctx.Err()
	}

	cands := d.queue[:0]
	grow := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.indeg == nil {
			d.indeg = d.ov.InEdgeCounts(nil)
		}
		counted := st.support != nil
		if !counted {
			st.support = d.ov.InEdgeCounts(member)
		}
		indeg, support = d.indeg, st.support

		for _, batch := range d.log[st.version-d.logBase:] {
			visited += uint64(len(batch))
			for _, e := range batch {
				if counted && member(e.Src) {
					support[e.Dst]++
				}
				if joinable(e.Dst) && !standing[e.Dst] {
					standing[e.Dst] = true
					cands = append(cands, e.Dst)
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}

		if err := pass(); err != nil {
			return err
		}
		for i := 0; i < len(cands); i++ { // cands grows as the closure finds more
			u := cands[i]
			visited += uint64(d.ov.OutDeg(u))
			d.ov.EachEdge(u, func(v uint32, _ uint8) {
				if !joinable(v) {
					return
				}
				candIn[v]++
				if !standing[v] {
					standing[v] = true
					cands = append(cands, v)
				}
			})
		}

		if err := pass(); err != nil {
			return err
		}
		work := d.next[:0]
		fall := func(v uint32) {
			standing[v] = false
			work = append(work, v)
		}
		for _, v := range cands {
			if short(v) {
				fall(v)
			}
		}
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			peeled++
			visited += uint64(d.ov.OutDeg(u))
			d.ov.EachEdge(u, func(v uint32, _ uint8) {
				if !standing[v] {
					return
				}
				candIn[v]--
				if short(v) {
					fall(v)
				}
			})
		}

		d.next = work // empty again; keeps what it grew to
		if peeled == uint64(len(cands)) {
			return nil
		}

		if err := pass(); err != nil {
			return err
		}
		for _, v := range cands {
			if standing[v] {
				prop[v] |= 1
				joined++
				visited += uint64(d.ov.OutDeg(v))
				d.ov.EachEdge(v, func(w uint32, _ uint8) { support[w]++ })
			}
		}
		return nil
	}
	err := grow()
	for _, v := range cands {
		standing[v], candIn[v] = false, 0
	}
	d.queue = cands[:0]

	res.EdgeVisits = visited
	span := map[string]any{
		"touched": joined, "edge_visits": visited, "rounds": res.Iterations,
		"candidates": len(cands), "joined": joined, "peeled": peeled,
	}
	return res, span, d.settleRepair(st, cur, res, joined, err)
}
