package graph

import "fmt"

// CSC is the in-edge (pull) view of a CSR graph: compressed sparse column.
// The in-edges of destination v live in Row/W[ColPtr[v]:ColPtr[v+1]],
// stored in ascending (source, edge-index) order — exactly the order the
// reference executor's serial loop folds contributions into v. A pull-mode
// engine that scans a destination's in-edge row left to right therefore
// replays the reference Reduce fold operation for operation, which is what
// keeps PageRank's non-associative float64 summation bit-identical to the
// push path (DESIGN.md §12).
//
// OutDeg memoizes each source's out-degree (RowPtr[u+1]-RowPtr[u] in the
// CSR): pull loops read the degree of random sources per edge, and a flat
// uint32 array halves the bytes touched versus the two uint64 RowPtr
// entries.
type CSC struct {
	V      uint32
	ColPtr []uint64
	Row    []uint32 // source vertex per in-edge
	W      []uint8  // weight per in-edge (same edge as Row)
	OutDeg []uint32 // out-degree per source vertex
}

// InEdges returns the source and weight slices of destination v. The
// returned slices alias the CSC arrays and must not be modified.
func (c *CSC) InEdges(v uint32) ([]uint32, []uint8) {
	lo, hi := c.ColPtr[v], c.ColPtr[v+1]
	return c.Row[lo:hi], c.W[lo:hi]
}

// BuildCSC transposes g into its in-edge (pull) view with a stable counting
// sort: count in-degrees, prefix-sum into ColPtr, then walk the rows in their
// native (source ascending, edge-index ascending) order appending each edge
// to its destination's row. Stability of that forward pass is what guarantees
// every row ends up sorted by (source, edge-index) — no comparison sort and no
// tie-breaking is needed, the walk order IS the target order. O(V+E) time,
// one extra copy of the edges in memory.
func BuildCSC(g *CSR) *CSC {
	c := &CSC{
		V:      g.V,
		ColPtr: make([]uint64, uint64(g.V)+1),
		Row:    make([]uint32, g.E()),
		W:      make([]uint8, g.E()),
		OutDeg: make([]uint32, g.V),
	}
	for u := uint32(0); u < g.V; u++ {
		c.OutDeg[u] = g.OutDeg(u)
	}
	for _, d := range g.Col {
		c.ColPtr[d+1]++
	}
	for d := uint32(0); d < g.V; d++ {
		c.ColPtr[d+1] += c.ColPtr[d]
	}
	next := make([]uint64, g.V)
	copy(next, c.ColPtr[:g.V])
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		for i, d := range dsts {
			p := next[d]
			next[d] = p + 1
			c.Row[p] = u
			c.W[p] = ws[i]
		}
	}
	return c
}

// Validate checks the CSC's structural invariants: monotone ColPtr
// covering exactly E edges, in-range sources, and every row sorted
// ascending by source (the stable build makes equal-source runs keep their
// CSR edge-index order, which Validate cannot see; csc_test.go's
// round-trip property checks it against the CSR directly).
func (c *CSC) Validate() error {
	if uint64(len(c.ColPtr)) != uint64(c.V)+1 {
		return fmt.Errorf("csc: colptr length %d, want %d", len(c.ColPtr), c.V+1)
	}
	if c.ColPtr[0] != 0 {
		return fmt.Errorf("csc: colptr[0] = %d, want 0", c.ColPtr[0])
	}
	if c.ColPtr[c.V] != uint64(len(c.Row)) {
		return fmt.Errorf("csc: colptr[V] = %d, want %d", c.ColPtr[c.V], len(c.Row))
	}
	if len(c.Row) != len(c.W) {
		return fmt.Errorf("csc: row length %d != weight length %d", len(c.Row), len(c.W))
	}
	for v := uint32(0); v < c.V; v++ {
		if c.ColPtr[v] > c.ColPtr[v+1] {
			return fmt.Errorf("csc: colptr not monotone at vertex %d", v)
		}
		row, _ := c.InEdges(v)
		for i, u := range row {
			if u >= c.V {
				return fmt.Errorf("csc: in-edge of %d from %d out of range (V=%d)", v, u, c.V)
			}
			if i > 0 && u < row[i-1] {
				return fmt.Errorf("csc: in-edges of %d not sorted by source at %d", v, i)
			}
		}
	}
	return nil
}

// l2Bytes is the per-core L2 working-set budget the pull-mode tile planner
// assumes: 512 KiB, at or below the L2 of every mainstream core of the last
// decade, so it errs toward smaller (always-resident) tiles.
const l2Bytes = 512 << 10

// PullTileWidth returns the source-range width (in vertices) for
// cache-blocked pull execution: tiles are sized so the source property
// slice a tile reads (8 B/vertex, the paper's property granularity) fills
// at most half the L2 budget, leaving the other half for the
// destination-side accumulators and the streamed edge rows. This is the
// same working-set arithmetic the simulator's destination-range tiling
// uses (accel.Engine, GridGraph [107]), applied on the source axis: the pull
// loop's random reads land in prop[lo:lo+width], which stays resident
// while a tile's edges stream. A width covering the whole graph (v small)
// degenerates to untiled pull.
func PullTileWidth(v uint32) uint32 {
	return max(min(l2Bytes/2/8, v), 1)
}
