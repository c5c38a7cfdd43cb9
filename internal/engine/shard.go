package engine

import "time"

// maxShards bounds the destination partition count. owner is a []uint16 so
// the hard ceiling is 65536; 1024 is already far beyond any sensible worker
// count and keeps the per-shard bookkeeping slices small.
const maxShards = 1024

// partition splits the destination space [0, V) into contiguous shards
// balanced by in-degree, so skewed (power-law) graphs spread their gather
// work evenly. Boundaries depend only on the graph and the shard count —
// never on the worker count — and results are bit-identical for every
// choice anyway (each destination has a single owner and each owner folds
// in reference order).
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
		for v < nv && acc < target {
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

// denseShard is the destination-sharded sub-CSR used by the AllActive mode:
// the edges whose destination the shard owns, grouped by source in
// ascending order with the original per-source edge order preserved, so a
// full stream of the shard replays the reference executor's Reduce order
// for every owned vertex.
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

// denseViews returns the sub-CSRs, building them on first use. Concurrent
// first users block on the Once until the one build has been published; as
// with pullViews, that time is charged to rs.indexBuild.
func (rs *runState) denseViews() *denseIndex {
	e := rs.e
	if d := e.dense.Load(); d != nil {
		return d
	}
	t0 := time.Now()
	e.denseOnce.Do(func() { e.dense.Store(e.buildDense()) })
	rs.indexBuild += time.Since(t0)
	return e.dense.Load()
}

// buildDense splits the graph's edges into per-shard sub-CSRs in two O(E)
// passes (count, then fill), streaming the adjacency from the engine's
// store — each segment block decodes twice and never resides whole in
// memory. The "same source as last edge into this shard" grouping is
// insensitive to hub rows arriving as multiple ScanRows pieces (pieces of
// one row are adjacent and in order), so RAM- and segment-backed builds
// produce identical shards. Memory cost is one extra copy of Col+Weight.
func (e *Engine) buildDense() *denseIndex {
	edges := make([]uint64, e.shards)
	rows := make([]uint64, e.shards)
	last := make([]int64, e.shards)
	for s := range last {
		last[s] = -1
	}
	e.store.ScanRows(func(u uint32, dsts []uint32, _ []uint8) {
		for _, v := range dsts {
			s := e.owner[v]
			edges[s]++
			if last[s] != int64(u) {
				last[s] = int64(u)
				rows[s]++
			}
		}
	})
	dense := make([]denseShard, e.shards)
	for s := range dense {
		dense[s] = denseShard{
			srcs:   make([]uint32, 0, rows[s]),
			rowPtr: append(make([]uint64, 0, rows[s]+1), 0),
			col:    make([]uint32, 0, edges[s]),
			weight: make([]uint8, 0, edges[s]),
		}
		last[s] = -1
	}
	e.store.ScanRows(func(u uint32, dsts []uint32, ws []uint8) {
		for i, v := range dsts {
			s := e.owner[v]
			ds := &dense[s]
			if last[s] != int64(u) {
				last[s] = int64(u)
				ds.srcs = append(ds.srcs, u)
				ds.rowPtr = append(ds.rowPtr, ds.rowPtr[len(ds.rowPtr)-1])
			}
			ds.col = append(ds.col, v)
			ds.weight = append(ds.weight, ws[i])
			ds.rowPtr[len(ds.rowPtr)-1]++
		}
	})
	idx := &denseIndex{shards: dense}
	for s := range dense {
		idx.srcsTotal += uint64(len(dense[s].srcs))
	}
	return idx
}
