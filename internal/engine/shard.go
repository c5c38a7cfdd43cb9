package engine

import "time"

// maxShards bounds the destination partition count. owner is a []uint16 so
// the hard ceiling is 65536; 1024 is already far beyond any sensible worker
// count and keeps the per-shard bookkeeping slices small.
const maxShards = 1024

// partition splits the destination space [0, V) into contiguous shards
// balanced by in-degree, so skewed (power-law) graphs spread their gather
// work evenly. Every boundary but V is a multiple of 64, so each word of the
// run's touched bitmap belongs to one shard (shardWords). Boundaries depend
// only on the graph and the shard count — never on the worker count — and
// results are bit-identical for every choice anyway (each destination has a
// single owner and each owner folds in reference order).
func (e *Engine) partition() {
	nv := e.v
	indeg := make([]uint32, nv)
	e.store.ScanRows(func(_ uint32, dsts []uint32, _ []uint8) {
		for _, v := range dsts {
			indeg[v]++
		}
	})
	e.bounds = make([]uint32, e.shards+1)
	e.owner = make([]uint16, nv)
	// Weight each vertex by in-degree plus one: the +1 spreads long
	// zero-in-degree ranges instead of collapsing them into one shard.
	total := e.nEdges + uint64(nv)
	v := uint32(0)
	var acc uint64
	for s := 0; s < e.shards; s++ {
		e.bounds[s] = v
		target := total * uint64(s+1) / uint64(e.shards)
		for v < nv && (acc < target || v%64 != 0) {
			acc += uint64(indeg[v]) + 1
			e.owner[v] = uint16(s)
			v++
		}
	}
	e.bounds[e.shards] = nv
	for ; v < nv; v++ {
		e.owner[v] = uint16(e.shards - 1)
	}
}

// shardWords returns the touched-bitmap words [lo, hi) shard s owns: the
// words of its range, which starts on a multiple of 64 unless the shard is an
// empty one at V — whose range then owns no word, not the last real shard's.
func (e *Engine) shardWords(s int) (lo, hi uint32) {
	return (e.bounds[s] + 63) / 64, (e.bounds[s+1] + 63) / 64
}

// denseShard is the destination-sharded sub-CSR the sparse stream path
// folds: the edges whose destination the shard owns, grouped by source in
// ascending order, each source's row in ascending destination order with
// multi-edges in edge-index order, so a stream of the shard's active sources
// replays the reference executor's Reduce order for every owned vertex.
type denseShard struct {
	srcs   []uint32 // sources with at least one edge into this shard
	rowPtr []uint64 // col/weight range of srcs[i] is [rowPtr[i], rowPtr[i+1])
	col    []uint32
	weight []uint8
}

// denseIndex is the set of sub-CSRs, one per shard; srcsTotal is the sum of
// their source-list lengths (the per-iteration scan cost of the streaming
// path).
type denseIndex struct {
	shards    []denseShard
	srcsTotal uint64
}

// denseViews returns the sub-CSRs, deriving them from the pull index on
// first use. Concurrent first users block on the Once until the one build
// has been published; as with pullViews, that time — and the pull build's,
// if this is the run's first — is charged to rs.indexBuild.
func (rs *runState) denseViews() *denseIndex {
	e := rs.e
	if d := e.dense.Load(); d != nil {
		return d
	}
	pull := rs.pullViews()
	t0 := time.Now()
	e.denseOnce.Do(func() { e.dense.Store(e.buildDense(pull, rs.width)) })
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
// extra copy of Col+Weight.
func (e *Engine) buildDense(pull *pullIndex, phaseWidth int) *denseIndex {
	dense := make([]denseShard, e.shards)
	parallelDo(phaseWidth, e.shards, func(s int) {
		tiles := pull.shards[s].tiles
		// cur[off] is, per tile, source base+off's edge count, then the
		// position of its next edge in col; it is all zero between tiles.
		cur := make([]uint64, min(e.tileWidth, e.v))
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
		edges := pull.shards[s].edges
		ds := denseShard{
			srcs:   make([]uint32, 0, nsrc),
			rowPtr: make([]uint64, 1, nsrc+1),
			col:    make([]uint32, edges),
			weight: make([]uint8, edges),
		}
		for ti := range tiles {
			pt := &tiles[ti]
			if len(pt.row) == 0 {
				continue
			}
			for _, off := range pt.row {
				cur[off]++
			}
			first := len(ds.srcs)
			for off, n := range cur {
				if n > 0 {
					end := ds.rowPtr[len(ds.rowPtr)-1]
					ds.srcs = append(ds.srcs, pt.base+uint32(off))
					ds.rowPtr = append(ds.rowPtr, end+n)
					cur[off] = end
				}
			}
			for i, v := range pt.dsts {
				for j := pt.rowPtr[i]; j < pt.rowPtr[i+1]; j++ {
					p := &cur[pt.row[j]]
					ds.col[*p], ds.weight[*p] = v, pt.w[j]
					*p++
				}
			}
			for _, u := range ds.srcs[first:] {
				cur[u-pt.base] = 0
			}
		}
		dense[s] = ds
	})
	idx := &denseIndex{shards: dense}
	for s := range dense {
		idx.srcsTotal += uint64(len(dense[s].srcs))
	}
	return idx
}
