package engine

import (
	"cmp"
	"slices"
	"unsafe"

	"piccolo/internal/graph"
)

// Push reads the graph's own forward rows (DESIGN.md §9). The engine holds
// them as a table of fixed 64-source chunks: chunk c covers the sources
// [64c, 64c+64), and the row of source 64c+i is col/w[ptr[i]:ptr[i+1]],
// ascending by destination with multi-edges in edge order. The chunks of a
// built engine alias the CSR: ptr is a window of its RowPtr, col and w are its
// Col and Weight whole, so no edge is copied. Advance rewrites only the chunks
// an inserted edge's source lands in, into arrays of their own, and shares
// every other chunk with the engine it came from.

// chunkBits is log2 of the sources per row chunk.
const chunkBits = 6

// rowChunk holds the out-rows of one run of 64 sources (fewer in the last
// chunk).
type rowChunk struct {
	ptr []uint64
	col []uint32
	w   []uint8
	own bool // written by Advance; otherwise ptr, col and w alias the CSR
}

// aliasRows returns g's rows as a chunk table over g's own arrays.
func aliasRows(g *graph.CSR) []rowChunk {
	rows := make([]rowChunk, (uint64(g.V)+63)>>chunkBits)
	for c := range rows {
		lo := uint64(c) << chunkBits
		hi := min(lo+64, uint64(g.V))
		rows[c] = rowChunk{ptr: g.RowPtr[lo : hi+1], col: g.Col, w: g.Weight}
	}
	return rows
}

// row returns source u's out-row: destinations ascending, and their weights.
func (e *Engine) row(u uint32) ([]uint32, []uint8) {
	c, i := &e.rows[u>>chunkBits], u&63
	lo, hi := c.ptr[i], c.ptr[i+1]
	return c.col[lo:hi], c.w[lo:hi]
}

// carryRows returns the next graph version's chunk table: rows plus the
// inserted edges, with every chunk no inserted edge's source lands in shared
// and rows itself never written. The batch is sorted stably by (source,
// destination), so inserted copies of one u→v keep their batch order.
func carryRows(rows []rowChunk, inserted []graph.Edge) []rowChunk {
	next := slices.Clone(rows)
	add := slices.Clone(inserted)
	slices.SortStableFunc(add, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	for lo := 0; lo < len(add); {
		c := add[lo].Src >> chunkBits
		hi := lo + 1
		for hi < len(add) && add[hi].Src>>chunkBits == c {
			hi++
		}
		next[c] = next[c].merged(c<<chunkBits, add[lo:hi])
		lo = hi
	}
	return next
}

// merged returns a chunk of its own holding c's rows with add folded in, in
// one pass. add holds edges of this chunk only, sorted by (source,
// destination) with batch order between equals. Each inserted u→v goes after
// every existing u→v, which is where stream.Overlay's materialization puts
// it: it appends the edge to row u and stable-sorts the row by destination.
func (c *rowChunk) merged(base uint32, add []graph.Edge) rowChunk {
	n := len(c.ptr) - 1
	edges := c.ptr[n] - c.ptr[0] + uint64(len(add))
	nc := rowChunk{
		ptr: append(make([]uint64, 0, n+1), 0),
		col: make([]uint32, 0, edges),
		w:   make([]uint8, 0, edges),
		own: true,
	}
	a := 0
	for i := 0; i < n; i++ {
		col, w := c.col[c.ptr[i]:c.ptr[i+1]], c.w[c.ptr[i]:c.ptr[i+1]]
		j := 0 // next old edge of the row to place
		for ; a < len(add) && add[a].Src-base == uint32(i); a++ {
			k := j
			for k < len(col) && col[k] <= add[a].Dst {
				k++
			}
			nc.col, nc.w = append(nc.col, col[j:k]...), append(nc.w, w[j:k]...)
			nc.col, nc.w = append(nc.col, add[a].Dst), append(nc.w, add[a].Weight)
			j = k
		}
		nc.col, nc.w = append(nc.col, col[j:]...), append(nc.w, w[j:]...)
		nc.ptr = append(nc.ptr, uint64(len(nc.col)))
	}
	return nc
}

// IndexBytes reports the bytes the engine's index owns: the pull tiles, the
// out-degrees, the row-chunk table and the chunks Advance rewrote, plus the
// rows of a store NewFromStore had to decode. The CSR arrays the chunks share
// with the caller's graph are not counted.
func (e *Engine) IndexBytes() uint64 { return e.bytes }

// countBytes sums what IndexBytes reports, in O(V/64 + tiles).
func (e *Engine) countBytes() uint64 {
	n := e.decoded + 4*uint64(len(e.pull.degs)) + uint64(unsafe.Sizeof(rowChunk{}))*uint64(len(e.rows))
	for _, ps := range e.pull.shards {
		for _, pt := range ps.tiles {
			n += uint64(unsafe.Sizeof(pt)) + 4*uint64(len(pt.dsts)+len(pt.rowPtr)) + 3*uint64(len(pt.row))
		}
	}
	for _, c := range e.rows {
		if c.own {
			n += 8*uint64(len(c.ptr)) + 5*uint64(len(c.col))
		}
	}
	return n
}
