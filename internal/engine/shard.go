package engine

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
