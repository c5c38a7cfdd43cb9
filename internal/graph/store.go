package graph

// GraphStore is the storage abstraction behind the engine's shard sources
// (DESIGN.md §14): a read-only graph whose adjacency can be visited in the
// one order every executor in this repo pins — ascending (source,
// edge-index), the reference fold order. Two implementations exist: the
// in-RAM CSR (AsStore) and the on-disk compressed segment (Segment), so
// the engine builds its shard views from RAM or mmap transparently.
//
// Row pieces: ScanRows may deliver one vertex's out-edges in several
// consecutive callbacks (a hub row split across cache-sized segment
// blocks). Pieces of one row are always adjacent in the scan and arrive in
// edge-index order, so a consumer that accumulates per source, as
// BuildCSCStore (the engine's one store reader) does, handles both
// implementations identically.
type GraphStore interface {
	// Name returns the graph's name.
	Name() string
	// NumVertices returns the vertex count.
	NumVertices() uint32
	// NumEdges returns the directed edge count.
	NumEdges() uint64
	// OutDeg returns the out-degree of vertex u (u < NumVertices).
	OutDeg(u uint32) uint32
	// ScanRows visits every edge in ascending (source, edge-index) order as
	// non-empty row pieces (see the package comment on pieces). The slices
	// passed to fn are only valid for the duration of the callback.
	ScanRows(fn func(src uint32, dsts []uint32, ws []uint8))
}

// csrStore adapts an in-RAM CSR to the GraphStore interface with zero
// copies: ScanRows walks the CSR arrays in place.
type csrStore struct{ g *CSR }

// AsStore wraps g in the GraphStore interface. The CSR is shared read-only
// and must not be mutated while the store is in use.
func AsStore(g *CSR) GraphStore { return csrStore{g} }

func (s csrStore) Name() string        { return s.g.Name }
func (s csrStore) NumVertices() uint32 { return s.g.V }
func (s csrStore) NumEdges() uint64    { return s.g.E() }
func (s csrStore) OutDeg(u uint32) uint32 {
	return s.g.OutDeg(u)
}

func (s csrStore) ScanRows(fn func(src uint32, dsts []uint32, ws []uint8)) {
	g := s.g
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		if len(dsts) > 0 {
			fn(u, dsts, ws)
		}
	}
}

// BuildCSCStore transposes any GraphStore into its in-edge (pull) view with
// a stable counting sort: count in-degrees, prefix-sum into ColPtr, then scan
// the rows in their native (source ascending, edge-index ascending) order
// appending each edge to its destination's row. Stability of that forward
// pass is what guarantees every row ends up sorted by (source, edge-index) —
// no comparison sort and no tie-breaking is needed, the scan order IS the
// target order. O(V+E) time, one extra copy of the edges in memory.
func BuildCSCStore(s GraphStore) *CSC {
	v, e := s.NumVertices(), s.NumEdges()
	c := &CSC{
		V:      v,
		ColPtr: make([]uint64, uint64(v)+1),
		Row:    make([]uint32, e),
		W:      make([]uint8, e),
		OutDeg: make([]uint32, v),
	}
	s.ScanRows(func(src uint32, dsts []uint32, _ []uint8) {
		c.OutDeg[src] += uint32(len(dsts)) // += : hub rows arrive in pieces
		for _, d := range dsts {
			c.ColPtr[d+1]++
		}
	})
	for d := uint32(0); d < v; d++ {
		c.ColPtr[d+1] += c.ColPtr[d]
	}
	next := make([]uint64, v)
	copy(next, c.ColPtr[:v])
	s.ScanRows(func(src uint32, dsts []uint32, ws []uint8) {
		for i, d := range dsts {
			p := next[d]
			next[d] = p + 1
			c.Row[p] = src
			c.W[p] = ws[i]
		}
	})
	return c
}

// HighestDegreeVertexStore is HighestDegreeVertex over any GraphStore: the
// smallest vertex id of maximum out-degree, and false when the store has no
// vertices. Segment-backed stores answer from the mmap'd RowPtr alone — no
// adjacency decode.
func HighestDegreeVertexStore(s GraphStore) (uint32, bool) {
	v := s.NumVertices()
	if v == 0 {
		return 0, false
	}
	best, bestDeg := uint32(0), uint32(0)
	for u := uint32(0); u < v; u++ {
		if d := s.OutDeg(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best, true
}
