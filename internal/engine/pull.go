package engine

import (
	"cmp"
	"slices"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// Pull mode: destination-centric traversal over a CSC (in-edge) view.
//
// Each destination shard's in-edges are cache-blocked into source-range
// tiles of width Engine.tileWidth: tile t of a shard holds exactly the
// owned destinations' in-edges whose source lies in
// [t·width, (t+1)·width). While a tile streams, the pull loop's random
// reads — prop[u] and degs[u] — land inside that source window, which is
// sized to stay L2-resident (graph.PullTileWidth; same working-set
// arithmetic as the simulator's destination tiling in graph/tiling.go).
//
// Bit-identity (DESIGN.md §12): a destination's full in-edge row is stored
// in ascending (source, edge-index) order (graph.BuildCSC's stable
// counting sort), and restricting it to an ascending sequence of disjoint
// source ranges partitions the row into contiguous-in-order pieces. Each
// shard folds its tiles in ascending tile order and each tile's rows left
// to right, accumulating partial folds in vtemp across tiles, so every
// destination's contributions are reduced in exactly the reference
// executor's order — the same order the push paths pin. PageRank's
// non-associative float64 sums therefore come out bit-identical in either
// direction, at any worker, shard, or tile-width choice.

// pullTile is one (shard, source-range) sub-CSC: the shard's owned
// destinations that have at least one in-edge from the tile's source
// range, each with that slice of its in-edge row.
type pullTile struct {
	base   uint32   // first source of the tile's range
	dsts   []uint32 // owned destinations with ≥1 in-edge in this tile, ascending
	rowPtr []uint32 // row/w range of dsts[i] is [rowPtr[i], rowPtr[i+1])
	row    []uint16 // in-edge sources as offsets from base, ascending (source, edge-index) per dst
	w      []uint8  // weight per in-edge (same edge as row)
}

// maxTileWidth is the widest source range a tile may cover: row stores
// sources as 16-bit offsets from the tile's base, which is what keeps the
// pull view at 3 B/edge next to the dense sub-CSRs' 5 B/edge.
const maxTileWidth = 1 << 16

// pullShard is the pull-mode view of one destination shard: its in-edges
// split into source-range tiles, plus the total edge count (the dense
// accounting when every source is active).
type pullShard struct {
	tiles []pullTile
	edges uint64
}

// pullIndex is the pull-mode view of the whole graph: one pullShard per
// destination shard, plus the out-degrees the pull Process calls need.
type pullIndex struct {
	shards []pullShard
	degs   []uint32
}

// pullViews returns the tiled CSC views, building them on first use at the
// calling run's phase width. Concurrent first users block on the Once until
// the one build has been published. The time a run spends building, or
// waiting for another run's build, is charged to rs.indexBuild so its
// superstep span can name it (index_build_ns) instead of passing it off as
// traversal time.
func (rs *runState) pullViews() *pullIndex {
	e := rs.e
	if p := e.pull.Load(); p != nil {
		return p
	}
	t0 := time.Now()
	e.pullOnce.Do(func() { e.pull.Store(e.buildPull(rs.width)) })
	rs.indexBuild += time.Since(t0)
	return e.pull.Load()
}

// buildPull materializes the per-shard tiled CSC views. One
// graph.BuildCSC transpose (O(V+E)), then each shard splits its owned
// destinations' rows into tiles with a count pass and a fill pass —
// shards build in parallel, writing only their own pullShard. Memory cost
// is one extra copy of Row+W (the shared CSC is released; only the tiled
// copies and OutDeg are kept).
func (e *Engine) buildPull(phaseWidth int) *pullIndex {
	csc := graph.BuildCSCStore(e.store)
	width := uint64(e.tileWidth)
	nTiles := int((uint64(e.v) + width - 1) / width)
	shards := make([]pullShard, e.shards)
	parallelDo(phaseWidth, e.shards, func(s int) {
		lo, hi := e.bounds[s], e.bounds[s+1]
		ps := &shards[s]
		ps.tiles = make([]pullTile, nTiles)
		edgeCnt := make([]uint32, nTiles)
		rowCnt := make([]uint32, nTiles)
		lastDst := make([]int64, nTiles)
		for t := range lastDst {
			lastDst[t] = -1
		}
		for v := lo; v < hi; v++ {
			row, _ := csc.InEdges(v)
			ps.edges += uint64(len(row))
			for _, u := range row {
				t := int(uint64(u) / width)
				edgeCnt[t]++
				if lastDst[t] != int64(v) {
					lastDst[t] = int64(v)
					rowCnt[t]++
				}
			}
		}
		for t := range ps.tiles {
			ps.tiles[t] = pullTile{
				base:   uint32(uint64(t) * width),
				dsts:   make([]uint32, 0, rowCnt[t]),
				rowPtr: append(make([]uint32, 0, rowCnt[t]+1), 0),
				row:    make([]uint16, 0, edgeCnt[t]),
				w:      make([]uint8, 0, edgeCnt[t]),
			}
			lastDst[t] = -1
		}
		for v := lo; v < hi; v++ {
			row, ws := csc.InEdges(v)
			for i, u := range row {
				t := int(uint64(u) / width)
				pt := &ps.tiles[t]
				if lastDst[t] != int64(v) {
					lastDst[t] = int64(v)
					pt.dsts = append(pt.dsts, v)
					pt.rowPtr = append(pt.rowPtr, pt.rowPtr[len(pt.rowPtr)-1])
				}
				pt.row = append(pt.row, uint16(u-pt.base))
				pt.w = append(pt.w, ws[i])
				pt.rowPtr[len(pt.rowPtr)-1]++
			}
		}
	})
	return &pullIndex{shards: shards, degs: csc.OutDeg}
}

// carry derives the next graph version's index from idx (DESIGN.md §9
// "Index carried across versions"): degs is copied and bumped, and only the
// (shard, tile) pairs an inserted edge lands in are rewritten — every other
// tile, and the tile lists of untouched shards, are shared with idx, which
// is never written. It returns the new index and the number of tiles it
// rewrote.
//
// Order argument: the overlay appends an inserted edge u→v to row u and
// stable-sorts the row by destination, so in the next CSR it sits after
// every existing u→v edge, and BuildCSC's stable counting sort then places
// it in v's in-edge row after every existing in-edge whose source is ≤ u,
// new edges of one (u, v) keeping insertion order. Sorting the batch stably
// by (tile, destination, source) and merging each group behind the existing
// entries with offset ≤ its own reproduces exactly that row, so the result
// equals buildPull on the next CSR at the same bounds, field for field.
func (idx *pullIndex) carry(owner []uint16, tileWidth uint32, inserted []graph.Edge) (*pullIndex, int) {
	if len(inserted) == 0 {
		return idx, 0 // an index is never written: the next version shares all of it
	}
	next := &pullIndex{shards: slices.Clone(idx.shards), degs: slices.Clone(idx.degs)}
	add := slices.Clone(inserted)
	slices.SortStableFunc(add, func(a, b graph.Edge) int {
		return cmp.Or(
			cmp.Compare(a.Src/tileWidth, b.Src/tileWidth),
			cmp.Compare(a.Dst, b.Dst),
			cmp.Compare(a.Src, b.Src))
	})
	cloned := make([]bool, len(next.shards))
	touched := 0
	for lo := 0; lo < len(add); {
		// Shards own ascending destination ranges, so within one tile the
		// destination order keeps each shard's edges contiguous.
		s, t := owner[add[lo].Dst], add[lo].Src/tileWidth
		hi := lo + 1
		for hi < len(add) && add[hi].Src/tileWidth == t && owner[add[hi].Dst] == s {
			hi++
		}
		ps := &next.shards[s]
		if !cloned[s] {
			ps.tiles, cloned[s] = slices.Clone(ps.tiles), true
		}
		ps.tiles[t] = ps.tiles[t].merged(add[lo:hi])
		ps.edges += uint64(hi - lo)
		touched++
		lo = hi
	}
	for _, e := range inserted {
		next.degs[e.Src]++
	}
	return next, touched
}

// merged returns a copy of the tile with add folded in, in one pass over
// the tile. add holds edges of this tile only, sorted by (destination,
// source) with insertion order between equals.
func (pt *pullTile) merged(add []graph.Edge) pullTile {
	nt := pullTile{
		base:   pt.base,
		dsts:   make([]uint32, 0, len(pt.dsts)+len(add)),
		rowPtr: append(make([]uint32, 0, len(pt.dsts)+len(add)+1), 0),
		row:    make([]uint16, 0, len(pt.row)+len(add)),
		w:      make([]uint8, 0, len(pt.w)+len(add)),
	}
	// copyRows appends the old rows [i, j) unchanged.
	copyRows := func(i, j int) {
		lo, hi := pt.rowPtr[i], pt.rowPtr[j]
		shift := uint32(len(nt.row)) - lo
		nt.dsts = append(nt.dsts, pt.dsts[i:j]...)
		nt.row = append(nt.row, pt.row[lo:hi]...)
		nt.w = append(nt.w, pt.w[lo:hi]...)
		for _, p := range pt.rowPtr[i+1 : j+1] {
			nt.rowPtr = append(nt.rowPtr, p+shift)
		}
	}
	i := 0 // next old row to place
	for a := 0; a < len(add); {
		v := add[a].Dst
		b := a + 1
		for b < len(add) && add[b].Dst == v {
			b++
		}
		n, found := slices.BinarySearch(pt.dsts[i:], v)
		copyRows(i, i+n)
		i += n
		var oldRow []uint16
		var oldW []uint8
		if found {
			oldRow, oldW = pt.row[pt.rowPtr[i]:pt.rowPtr[i+1]], pt.w[pt.rowPtr[i]:pt.rowPtr[i+1]]
			i++
		}
		nt.dsts = append(nt.dsts, v)
		k := 0
		for _, e := range add[a:b] {
			off := uint16(e.Src - pt.base)
			for k < len(oldRow) && oldRow[k] <= off {
				nt.row, nt.w = append(nt.row, oldRow[k]), append(nt.w, oldW[k])
				k++
			}
			nt.row, nt.w = append(nt.row, off), append(nt.w, e.Weight)
		}
		nt.row, nt.w = append(nt.row, oldRow[k:]...), append(nt.w, oldW[k:]...)
		nt.rowPtr = append(nt.rowPtr, uint32(len(nt.row)))
		a = b
	}
	copyRows(i, len(pt.dsts))
	return nt
}

// pullContributions is the sparse pull phase: every shard folds its owned
// destinations' in-edges tile by tile, restricted to the frontier's
// out-edges, in reference order per destination. How a loop restricts the
// fold is the registered loop's business: a masked fold (fastOps.maskedPull)
// reads a per-source array in which only frontier vertices carry their
// property; the early-exit and generic loops test each source against the
// frontier bitmap. A destination enters touched[s] once per iteration — on
// its first contribution in the bitmap loops, when its accumulator first
// moves in a masked fold.
func (rs *runState) pullContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, frontier []uint32) {
	pull := rs.pullViews()
	if fp != nil && fp.maskedPull != nil {
		src := rs.maskSources(fp.maskIdle, prop, frontier)
		rs.parallelDo(rs.e.shards, func(s int) {
			touched := rs.touched[s][:0]
			tiles := pull.shards[s].tiles
			for ti := range tiles {
				touched = fp.maskedPull(rs.vtemp, &tiles[ti], src, rs.updated, touched)
			}
			rs.touched[s] = touched
		})
		return
	}
	active := rs.markFrontier(frontier)
	fast := fp != nil && fp.pull != nil
	degs := pull.degs
	rs.parallelDo(rs.e.shards, func(s int) {
		touched := rs.touched[s][:0]
		vtemp := rs.vtemp
		tiles := pull.shards[s].tiles
		for ti := range tiles {
			pt := &tiles[ti]
			if len(pt.dsts) == 0 {
				continue
			}
			if fast {
				touched = fp.pull(vtemp, pt, prop, degs, active, rs.updated, touched)
				continue
			}
			for i, v := range pt.dsts {
				lo, hi := pt.rowPtr[i], pt.rowPtr[i+1]
				acc := vtemp[v]
				hit := false
				for j := lo; j < hi; j++ {
					u := pt.base + uint32(pt.row[j])
					if active[u>>6]&(uint64(1)<<(u&63)) == 0 {
						continue
					}
					acc = k.Reduce(acc, k.Process(pt.w[j], prop[u], degs[u]))
					hit = true
				}
				if hit {
					vtemp[v] = acc
					if !rs.updated[v] {
						rs.updated[v] = true
						touched = append(touched, v)
					}
				}
			}
		}
		rs.touched[s] = touched
	})
	rs.active.clearAll(frontier)
}

// maskSources fills the run's per-source array for a masked fold: idle
// everywhere, prop[u] on the frontier — O(V) beside the fold's O(E). The
// array is the dense-pull contribution scratch; each user writes every entry
// it goes on to read.
func (rs *runState) maskSources(idle uint64, prop []uint64, frontier []uint32) []uint64 {
	src := rs.sourceScratch()
	for i := range src {
		src[i] = idle
	}
	for _, u := range frontier {
		src[u] = prop[u]
	}
	return src
}

// sourceScratch returns the run's per-source uint64 array, allocated on
// first use.
func (rs *runState) sourceScratch() []uint64 {
	if rs.contrib == nil {
		rs.contrib = make([]uint64, rs.e.v)
	}
	return rs.contrib
}

// denseContribPull is the AllActive pull phase. With every source active
// and a specialized kernel (PageRank), it runs the two-pass fast path:
// densePrep materializes each source's per-edge contribution once
// (contrib[u] = bits(prop[u]/deg[u]) — one division per vertex per
// iteration instead of one per edge), then each shard register-accumulates
// its tiles' rows from the contrib array. Otherwise it folds generically,
// honoring the first-iteration activity flags per source. Both variants
// replay the reference per-destination fold order.
func (rs *runState) denseContribPull(k algorithms.Kernel, fp *fastOps, prop []uint64, act []bool) {
	e := rs.e
	pull := rs.pullViews()
	degs := pull.degs
	if act == nil && fp != nil && fp.densePull != nil {
		contrib := rs.sourceScratch()
		// The destination-shard bounds cover [0, V) contiguously; reuse
		// them as source ranges for the prep pass.
		rs.parallelDo(e.shards, func(s int) {
			fp.densePrep(contrib, prop, degs, e.bounds[s], e.bounds[s+1])
		})
		rs.parallelDo(e.shards, func(s int) {
			ps := &pull.shards[s]
			for ti := range ps.tiles {
				fp.densePull(rs.vtemp, &ps.tiles[ti], contrib)
			}
			rs.shardCnt[s] = ps.edges
		})
		return
	}
	rs.parallelDo(e.shards, func(s int) {
		ps := &pull.shards[s]
		vtemp := rs.vtemp
		var cnt uint64
		for ti := range ps.tiles {
			pt := &ps.tiles[ti]
			for i, v := range pt.dsts {
				lo, hi := pt.rowPtr[i], pt.rowPtr[i+1]
				acc := vtemp[v]
				for j := lo; j < hi; j++ {
					u := pt.base + uint32(pt.row[j])
					if act != nil && !act[u] {
						continue
					}
					acc = k.Reduce(acc, k.Process(pt.w[j], prop[u], degs[u]))
					cnt++
				}
				vtemp[v] = acc
			}
		}
		rs.shardCnt[s] = cnt
	})
}
