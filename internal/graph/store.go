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
// edge-index order, so a consumer that appends per source, as LoadStore (the
// engine's one store reader) does, handles both implementations identically.
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

// LoadStore returns s's graph as an in-RAM CSR. Behind an AsStore store that
// is the CSR itself, uncopied, and copied is false; any other store is
// decoded once, row by row, into a new CSR.
func LoadStore(s GraphStore) (g *CSR, copied bool) {
	if c, ok := s.(csrStore); ok {
		return c.g, false
	}
	v := s.NumVertices()
	g = &CSR{
		Name:   s.Name(),
		V:      v,
		RowPtr: make([]uint64, uint64(v)+1),
		Col:    make([]uint32, 0, s.NumEdges()),
		Weight: make([]uint8, 0, s.NumEdges()),
	}
	for u := uint32(0); u < v; u++ {
		g.RowPtr[u+1] = g.RowPtr[u] + uint64(s.OutDeg(u))
	}
	s.ScanRows(func(_ uint32, dsts []uint32, ws []uint8) {
		g.Col = append(g.Col, dsts...)
		g.Weight = append(g.Weight, ws...)
	})
	return g, true
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
