package engine

import "time"

// maxShards bounds the destination partition count: 1024 is already far
// beyond any sensible worker count and keeps the per-shard bookkeeping
// slices small.
const maxShards = 1024

// partition splits the destination space [0, V) into contiguous shards
// balanced by in-degree, read off the transpose's column offsets, so skewed
// (power-law) graphs spread their gather work evenly. Every boundary but V is
// a multiple of 64, so each word of the run's touched bitmap belongs to one
// shard (shardWords). Boundaries depend only on the graph and the shard
// count — never on the worker count — and results are bit-identical for every
// choice anyway (each destination has a single owner and each owner folds in
// reference order).
func (e *Engine) partition(colPtr []uint64) {
	nv := e.v
	e.bounds = make([]uint32, e.shards+1)
	// Weight each vertex by in-degree plus one: the +1 spreads long
	// zero-in-degree ranges instead of collapsing them into one shard. The
	// weight of [0, v) is then colPtr[v] + v.
	total := e.nEdges + uint64(nv)
	v := uint32(0)
	for s := 0; s < e.shards; s++ {
		e.bounds[s] = v
		target := total * uint64(s+1) / uint64(e.shards)
		for v < nv && (colPtr[v]+uint64(v) < target || v%64 != 0) {
			v++
		}
	}
	e.bounds[e.shards] = nv
}

// shardWords returns the touched-bitmap words [lo, hi) shard s owns: the
// words of its range, which starts on a multiple of 64 unless the shard is an
// empty one at V — whose range then owns no word, not the last real shard's.
func (e *Engine) shardWords(s int) (lo, hi uint32) {
	return (e.bounds[s] + 63) / 64, (e.bounds[s+1] + 63) / 64
}

// subCSR is one shard's sub-CSR over the destinations [bounds[s],
// bounds[s+1]): the edges into the shard, grouped by source in ascending
// order, each source's row in ascending destination order with multi-edges
// in edge-index order, so a stream of the shard's active sources replays the
// reference executor's Reduce order for every owned vertex. The edges of
// Src[i] live in Dst/W[EdgeStart[i]:EdgeStart[i+1]].
type subCSR struct {
	Src, EdgeStart, Dst []uint32
	W                   []uint8
}

// denseIndex is the set of sub-CSRs, one per shard; srcsTotal is the sum of
// their source-list lengths (the per-iteration scan cost of the streaming
// path).
type denseIndex struct {
	shards    []subCSR
	srcsTotal uint64
}

// denseViews returns the sub-CSRs, deriving them from the pull index on
// first use. Concurrent first users block on the Once until the one build
// has been published; the time a run spends building, or waiting for another
// run's build, is charged to rs.indexBuild so its superstep span can name it
// (index_build_ns) instead of passing it off as traversal time.
func (rs *runState) denseViews() *denseIndex {
	e := rs.e
	if d := e.dense.Load(); d != nil {
		return d
	}
	t0 := time.Now()
	e.denseOnce.Do(func() { e.dense.Store(e.buildDense(rs.width)) })
	rs.indexBuild += time.Since(t0)
	return e.dense.Load()
}

// buildDense derives each shard's sub-CSR from its pull tiles, shards in
// parallel, reading no graph (DESIGN.md §9). A tile lists the shard's
// in-edges from one source range by destination; a counting transpose over
// that range regroups them by source: count each source's edges, lay the
// rows out in ascending source order, then walk the tile's destinations in
// ascending order placing each edge at its source's cursor. Tiles cover
// disjoint ascending source ranges, so appending them in order gives the
// shard's ascending source list; and since a tile row holds its in-edges in
// (source, edge-index) order, each source's row comes out in ascending
// destination order with multi-edges in edge-index order. Memory cost is one
// extra copy of Dst+W.
func (e *Engine) buildDense(phaseWidth int) *denseIndex {
	dense := make([]subCSR, e.shards)
	parallelDo(phaseWidth, e.shards, func(s int) {
		tiles := e.pull.shards[s].tiles
		// cur[off] is, per tile, source base+off's edge count, then the
		// position of its next edge in Dst; it is all zero between tiles.
		cur := make([]uint32, min(e.tileWidth, e.v))
		nsrc := 0
		for ti := range tiles {
			for _, off := range tiles[ti].row {
				if cur[off] == 0 {
					cur[off] = 1
					nsrc++
				}
			}
			for _, off := range tiles[ti].row {
				cur[off] = 0
			}
		}
		edges := e.pull.shards[s].edges
		ds := subCSR{
			Src:       make([]uint32, 0, nsrc),
			EdgeStart: make([]uint32, 1, nsrc+1),
			Dst:       make([]uint32, edges),
			W:         make([]uint8, edges),
		}
		for ti := range tiles {
			pt := &tiles[ti]
			if len(pt.row) == 0 {
				continue
			}
			for _, off := range pt.row {
				cur[off]++
			}
			first := len(ds.Src)
			for off, n := range cur {
				if n > 0 {
					end := ds.EdgeStart[len(ds.EdgeStart)-1]
					ds.Src = append(ds.Src, pt.base+uint32(off))
					ds.EdgeStart = append(ds.EdgeStart, end+n)
					cur[off] = end
				}
			}
			for i, v := range pt.dsts {
				for j := pt.rowPtr[i]; j < pt.rowPtr[i+1]; j++ {
					p := &cur[pt.row[j]]
					ds.Dst[*p], ds.W[*p] = v, pt.w[j]
					*p++
				}
			}
			for _, u := range ds.Src[first:] {
				cur[u-pt.base] = 0
			}
		}
		dense[s] = ds
	})
	idx := &denseIndex{shards: dense}
	for s := range dense {
		idx.srcsTotal += uint64(len(dense[s].Src))
	}
	return idx
}
