// Package stream is the streaming-update subsystem: a versioned mutable
// overlay over the immutable graph.CSR plus a DynamicEngine that applies
// edge insertions in batches and incrementally repairs kernel results
// instead of re-running from scratch (DESIGN.md §10).
//
// The overlay keeps the base CSR untouched and records inserted edges in
// per-source delta rows; past a threshold the deltas are compacted back
// into a fresh CSR. Every applied batch bumps a version counter — the
// component the runner folds into its query cache keys so a result can
// never be served for a graph state it was not computed on.
//
// The vertex set is fixed at construction (property arrays are sized once);
// updates may only insert edges between existing vertices, with strictly
// positive weights (weight 0 would create zero-weight cycles, whose SSSP
// fixed point is not unique — the uniqueness every repair argument rests
// on).
package stream

import (
	"fmt"
	"sort"

	"piccolo/internal/graph"
)

// EdgeUpdate is one edge insertion. Multi-edges and self-loops are legal,
// exactly as in graph.FromEdges; Weight must be in [1, 255].
type EdgeUpdate struct {
	Src, Dst uint32
	Weight   uint8
}

// halfEdge is the stored form of a delta edge (the source is the row key).
type halfEdge struct {
	dst uint32
	w   uint8
}

// Overlay is a mutable graph: an immutable base CSR plus per-source delta
// rows of inserted edges. It is not safe for concurrent use — the
// DynamicEngine serializes access; library users mutating an Overlay
// directly must do their own locking.
type Overlay struct {
	base   *graph.CSR
	delta  map[uint32][]halfEdge
	nDelta uint64
	// version counts applied batches (compaction does not bump it: the
	// edge set is unchanged, only its representation).
	version uint64

	// Incrementally maintained argmax of out-degree, matching
	// graph.HighestDegreeVertex on the materialized graph: the smallest
	// vertex id among those of maximum out-degree.
	bestDeg uint32
	bestV   uint32

	// materialized CSR memo for the current version.
	mat        *graph.CSR
	matVersion uint64
	matValid   bool
}

// NewOverlay wraps base; the base CSR is shared read-only and must not be
// mutated afterwards.
func NewOverlay(base *graph.CSR) *Overlay {
	o := &Overlay{base: base, delta: map[uint32][]halfEdge{}}
	o.bestV, _ = graph.HighestDegreeVertex(base)
	if base.V > 0 {
		o.bestDeg = base.OutDeg(o.bestV)
	}
	return o
}

// Base returns the underlying CSR (read-only). After a compaction this is
// the compacted graph, not the one NewOverlay was built with.
func (o *Overlay) Base() *graph.CSR { return o.base }

// V returns the (fixed) vertex count.
func (o *Overlay) V() uint32 { return o.base.V }

// E returns the current edge count, base plus deltas.
func (o *Overlay) E() uint64 { return o.base.E() + o.nDelta }

// DeltaEdges returns the number of edges living in delta rows (zero right
// after construction or compaction).
func (o *Overlay) DeltaEdges() uint64 { return o.nDelta }

// Version returns the number of batches applied so far.
func (o *Overlay) Version() uint64 { return o.version }

// OutDeg returns the current out-degree of u.
func (o *Overlay) OutDeg(u uint32) uint32 {
	return o.base.OutDeg(u) + uint32(len(o.delta[u]))
}

// HighestDegreeVertex returns the smallest vertex id of maximum current
// out-degree — the same vertex graph.HighestDegreeVertex would pick on the
// materialized graph, maintained incrementally (edge insertions only ever
// increase degrees, so the argmax moves monotonically).
func (o *Overlay) HighestDegreeVertex() uint32 { return o.bestV }

// Apply validates the whole batch and then applies it atomically: either
// every edge is inserted and the version advances by one, or nothing
// changes. An empty batch is rejected (a version bump must mean the graph
// changed).
func (o *Overlay) Apply(batch []EdgeUpdate) error {
	if len(batch) == 0 {
		return fmt.Errorf("stream: empty update batch")
	}
	for i, e := range batch {
		if e.Src >= o.base.V || e.Dst >= o.base.V {
			return fmt.Errorf("stream: update %d: edge %d->%d out of range (V=%d)",
				i, e.Src, e.Dst, o.base.V)
		}
		if e.Weight == 0 {
			return fmt.Errorf("stream: update %d: zero weight (want 1..255)", i)
		}
	}
	for _, e := range batch {
		o.delta[e.Src] = append(o.delta[e.Src], halfEdge{dst: e.Dst, w: e.Weight})
		o.nDelta++
		if d := o.OutDeg(e.Src); d > o.bestDeg || (d == o.bestDeg && e.Src < o.bestV) {
			o.bestDeg, o.bestV = d, e.Src
		}
	}
	o.version++
	o.mat, o.matValid = nil, false // the stale memo is O(V+E): let it go now, not at the next Materialized
	return nil
}

// EachEdge calls fn for every current out-edge of u: first the base row,
// then the delta row in insertion order. Monotone kernels are insensitive
// to edge order, and the dense paths never see delta rows (they run on the
// materialized CSR), so the order here affects no result.
func (o *Overlay) EachEdge(u uint32, fn func(dst uint32, w uint8)) {
	dsts, ws := o.base.Neighbors(u)
	for i, v := range dsts {
		fn(v, ws[i])
	}
	for _, e := range o.delta[u] {
		fn(e.dst, e.w)
	}
}

// InEdgeCounts returns, per vertex, the number of current in-edges whose
// source passes from (nil: every source, i.e. the in-degrees) — one pass over
// the passing rows, base and delta alike.
func (o *Overlay) InEdgeCounts(from func(u uint32) bool) []uint32 {
	counts := make([]uint32, o.base.V)
	for u := uint32(0); u < o.base.V; u++ {
		if from == nil || from(u) {
			dsts, _ := o.base.Neighbors(u)
			for _, v := range dsts {
				counts[v]++
			}
		}
	}
	for u, row := range o.delta {
		if from == nil || from(u) {
			for _, e := range row {
				counts[e.dst]++
			}
		}
	}
	return counts
}

// Materialized returns a CSR equal to the current edge set (base plus
// deltas, rows re-sorted by destination), memoized per version. The
// returned graph is shared read-only; it must not be mutated.
func (o *Overlay) Materialized() *graph.CSR {
	if o.matValid && o.matVersion == o.version {
		return o.mat
	}
	// Let go of the stale memo first: it is O(V+E), and nothing here needs
	// it, so it should not stay reachable while its replacement is built.
	o.mat = nil
	o.mat = o.materialize()
	o.matVersion = o.version
	o.matValid = true
	return o.mat
}

// materialize merges the delta rows into a fresh CSR. Untouched rows are
// block-copied; touched rows are merged and re-sorted by destination so
// the result obeys the CSR convention (and matches graph.FromEdges on the
// combined edge list up to multi-edge weight order, which no kernel is
// sensitive to).
func (o *Overlay) materialize() *graph.CSR {
	b := o.base
	if o.nDelta == 0 {
		return b
	}
	out := &graph.CSR{
		Name:   b.Name,
		V:      b.V,
		RowPtr: make([]uint64, uint64(b.V)+1),
		Col:    make([]uint32, 0, o.E()),
		Weight: make([]uint8, 0, o.E()),
	}
	row := make([]halfEdge, 0, 64)
	for u := uint32(0); u < b.V; u++ {
		dsts, ws := b.Neighbors(u)
		if extra := o.delta[u]; len(extra) > 0 {
			row = row[:0]
			for i, v := range dsts {
				row = append(row, halfEdge{dst: v, w: ws[i]})
			}
			row = append(row, extra...)
			sort.SliceStable(row, func(i, j int) bool { return row[i].dst < row[j].dst })
			for _, e := range row {
				out.Col = append(out.Col, e.dst)
				out.Weight = append(out.Weight, e.w)
			}
		} else {
			out.Col = append(out.Col, dsts...)
			out.Weight = append(out.Weight, ws...)
		}
		out.RowPtr[u+1] = uint64(len(out.Col))
	}
	return out
}

// Compact adopts the materialized CSR as the new base and clears the delta
// rows. The edge set and version are unchanged — only the representation
// is, so results and cache keys are unaffected.
func (o *Overlay) Compact() {
	o.base = o.Materialized()
	o.delta = map[uint32][]halfEdge{}
	o.nDelta = 0
}

// Restore rebuilds the overlay from a WAL-recovered insertion history: the
// full sequence of inserted edges since the base graph, in insertion order,
// and the version it reaches. It may only be called on a fresh overlay
// (version 0, no deltas). The restored overlay materializes to the same CSR
// as the pre-crash overlay at that version even if the pre-crash process
// had compacted in between — materialization stable-sorts each row by
// destination, and insertion order within a row is preserved here, so the
// merged rows are identical whether or not intermediate compactions
// happened (wal_test.go pins this).
func (o *Overlay) Restore(history []EdgeUpdate, version uint64) error {
	if o.version != 0 || o.nDelta != 0 {
		return fmt.Errorf("stream: restore on non-fresh overlay (version %d, %d deltas)", o.version, o.nDelta)
	}
	if version == 0 && len(history) > 0 {
		return fmt.Errorf("stream: restore version 0 with %d history edges", len(history))
	}
	for i, e := range history {
		if e.Src >= o.base.V || e.Dst >= o.base.V {
			return fmt.Errorf("stream: restore edge %d: %d->%d out of range (V=%d)",
				i, e.Src, e.Dst, o.base.V)
		}
		if e.Weight == 0 {
			return fmt.Errorf("stream: restore edge %d: zero weight", i)
		}
	}
	for _, e := range history {
		o.delta[e.Src] = append(o.delta[e.Src], halfEdge{dst: e.Dst, w: e.Weight})
		o.nDelta++
		if d := o.OutDeg(e.Src); d > o.bestDeg || (d == o.bestDeg && e.Src < o.bestV) {
			o.bestDeg, o.bestV = d, e.Src
		}
	}
	o.version = version
	o.matValid = false
	return nil
}
