package engine

import (
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
// the one build is complete, and Once.Do's return orders their reads after
// its writes.
func (e *Engine) pullViews(width int) *pullIndex {
	e.pullOnce.Do(func() { e.pull = e.buildPull(width) })
	return e.pull
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

// pullContributions is the sparse pull phase: the frontier is materialized
// as a bitmap, then every shard folds its owned destinations' in-edges,
// testing each source against the bitmap — the selected edge set is
// exactly the frontier's out-edges, folded per destination in reference
// order. Touch tracking mirrors the push paths: a destination enters
// touched[s] the first time it receives a contribution this iteration.
func (rs *runState) pullContributions(k algorithms.Kernel, fp *fastOps, prop []uint64, frontier []uint32) {
	pull := rs.e.pullViews(rs.width)
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
	pull := e.pullViews(rs.width)
	degs := pull.degs
	if act == nil && fp != nil && fp.densePull != nil {
		if rs.contrib == nil {
			rs.contrib = make([]uint64, e.v)
		}
		contrib := rs.contrib
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
