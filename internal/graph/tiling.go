package graph

import "fmt"

// Tile holds the edges of one destination-range partition, grouped by source
// vertex. Sources appear in ascending order; the edges of Src[i] live in
// Dst/W[EdgeStart[i]:EdgeStart[i+1]]. This mirrors the per-tile CSR slices
// that tiling-based accelerators stream ("the row indices separately exist
// for each tile", §II-B).
type Tile struct {
	DstLo, DstHi uint32 // destination vertex range [DstLo, DstHi)
	Src          []uint32
	EdgeStart    []uint32
	Dst          []uint32
	W            []uint8
}

// Edges returns the number of edges in the tile.
func (t *Tile) Edges() int { return len(t.Dst) }

// Tiling partitions a graph's destination vertices into fixed-width ranges
// (graph tiling per GridGraph [107]): tile k owns destinations
// [k*Width, (k+1)*Width).
//
// The tiles' slices are cut from four arenas the tiling owns, sized exactly
// by a counting pass. Rebuild reuses them, so a tiling that is rebuilt for
// one simulation after another stops allocating once it has seen the
// largest graph.
type Tiling struct {
	G     *CSR
	Width uint32
	Tiles []Tile

	src, edgeStart, dst []uint32
	w                   []uint8
	counts              []tileCount
}

// tileCount is Rebuild's per-tile tally. lastSrc is the most recent source
// seen in the tile plus one (0: none yet); the CSR scan ascends in source,
// so a change means a new source group.
type tileCount struct {
	edges, srcs, lastSrc uint32
}

// NewTiling builds the destination-range tiling with the given width.
// width == 0 or width >= V yields a single tile (the non-tiling case).
func NewTiling(g *CSR, width uint32) *Tiling {
	t := new(Tiling)
	t.Rebuild(g, width)
	return t
}

// Rebuild makes t the tiling NewTiling(g, width) would return, reusing t's
// buffers where they are large enough. Everything read from t before the
// call — its tiles and their slices — is invalid afterwards.
func (t *Tiling) Rebuild(g *CSR, width uint32) {
	t.G = g
	if g.V == 0 {
		// Clamping width to V would make it 0 and the tile-count division
		// below would fault; an empty graph tiles into zero tiles.
		t.Width, t.Tiles = 0, t.Tiles[:0]
		return
	}
	if width == 0 || width >= g.V {
		width = g.V
	}
	t.Width = width
	n := int((g.V + width - 1) / width)

	// Count each tile's edges and source groups.
	t.counts = resize(t.counts, n)
	clear(t.counts)
	for u := uint32(0); u < g.V; u++ {
		dsts, _ := g.Neighbors(u)
		for _, v := range dsts {
			c := &t.counts[v/width]
			c.edges++
			if c.lastSrc != u+1 {
				c.lastSrc = u + 1
				c.srcs++
			}
		}
	}
	var edges, srcs int
	for i := range t.counts {
		edges += int(t.counts[i].edges)
		srcs += int(t.counts[i].srcs)
	}

	// Cut every tile's slices, empty and capped at their final size, from
	// the arenas.
	t.Tiles = resize(t.Tiles, n)
	t.dst, t.w = resize(t.dst, edges), resize(t.w, edges)
	t.src, t.edgeStart = resize(t.src, srcs), resize(t.edgeStart, srcs+n)
	var e, s int
	for k := range t.Tiles {
		c := &t.counts[k]
		ne, ns := int(c.edges), int(c.srcs)
		lo := uint32(k) * width
		t.Tiles[k] = Tile{
			DstLo:     lo,
			DstHi:     min(lo+width, g.V),
			Src:       t.src[s : s : s+ns],
			EdgeStart: t.edgeStart[s+k : s+k : s+k+ns+1],
			Dst:       t.dst[e : e : e+ne],
			W:         t.w[e : e : e+ne],
		}
		e, s = e+ne, s+ns
		c.lastSrc = 0
	}

	// Bucket the edges preserving source order (the CSR scan is already
	// ascending in src, so per-tile edge runs stay grouped and sorted by
	// source).
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		for i, v := range dsts {
			k := v / width
			tl := &t.Tiles[k]
			if c := &t.counts[k]; c.lastSrc != u+1 {
				c.lastSrc = u + 1
				tl.Src = append(tl.Src, u)
				tl.EdgeStart = append(tl.EdgeStart, uint32(len(tl.Dst)))
			}
			tl.Dst = append(tl.Dst, v)
			tl.W = append(tl.W, ws[i])
		}
	}
	for k := range t.Tiles {
		tl := &t.Tiles[k]
		tl.EdgeStart = append(tl.EdgeStart, uint32(len(tl.Dst)))
	}
}

// resize returns s with length n, reallocated only when its capacity is
// too small; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NumTiles returns the number of destination ranges.
func (t *Tiling) NumTiles() int { return len(t.Tiles) }

// Validate checks that the tiling partitions the edge set exactly: every
// edge appears in exactly one tile, inside its destination range, grouped
// under its source.
func (t *Tiling) Validate() error {
	var total uint64
	for k := range t.Tiles {
		tl := &t.Tiles[k]
		if len(tl.EdgeStart) != len(tl.Src)+1 {
			return fmt.Errorf("tiling: tile %d has %d sources but %d edge starts", k, len(tl.Src), len(tl.EdgeStart))
		}
		for i := range tl.Src {
			if i > 0 && tl.Src[i] <= tl.Src[i-1] {
				return fmt.Errorf("tiling: tile %d sources not ascending at %d", k, i)
			}
			for e := tl.EdgeStart[i]; e < tl.EdgeStart[i+1]; e++ {
				if tl.Dst[e] < tl.DstLo || tl.Dst[e] >= tl.DstHi {
					return fmt.Errorf("tiling: tile %d edge to %d outside [%d,%d)", k, tl.Dst[e], tl.DstLo, tl.DstHi)
				}
			}
		}
		total += uint64(len(tl.Dst))
	}
	if total != t.G.E() {
		return fmt.Errorf("tiling: %d edges across tiles, graph has %d", total, t.G.E())
	}
	return nil
}

// TopologyBytes estimates the topology traffic of streaming this tile for
// the given number of active sources present in the tile and their edges:
// one row-index entry (8B: offset+degree) per active source plus 4B per
// column index, matching the paper's CSR cost model (§II-B).
func TopologyBytes(activeSrcs, activeEdges uint64) uint64 {
	return activeSrcs*8 + activeEdges*4
}
