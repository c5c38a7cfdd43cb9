package engine

// bitmap is the O(1)-membership view of the frontier for the loops that
// test sources one by one: the early-exit pull loop and the generic pull
// loop (the masked pull folds and the push row walk need no membership
// test). One bit per vertex in a word
// array. The engine always keeps the frontier as a sorted []uint32 slice;
// the bitmap is a materialized view of that slice, built before such an
// iteration (O(|F|) sets) and torn down after it (O(|F|) clears), so its
// cost scales with the frontier, never with V — except the one-time
// allocation.
type bitmap []uint64

// newBitmap returns an all-zero bitmap covering vertices [0, v).
func newBitmap(v uint32) bitmap {
	return make(bitmap, (uint64(v)+63)/64)
}

// setAll marks every vertex in vs (a frontier slice).
func (b bitmap) setAll(vs []uint32) {
	for _, v := range vs {
		b[v>>6] |= uint64(1) << (v & 63)
	}
}

// clearAll unmarks every vertex in vs. Paired with setAll around one
// iteration it restores the all-zero state in O(|F|) instead of O(V).
func (b bitmap) clearAll(vs []uint32) {
	for _, v := range vs {
		b[v>>6] &^= uint64(1) << (v & 63)
	}
}
