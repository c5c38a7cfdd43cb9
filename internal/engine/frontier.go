package engine

import "math/bits"

// bitmap is the O(1)-membership view of the frontier for the loops that
// test sources one by one: the stream path's source walk, the early-exit
// pull loop and the generic pull loop (the masked pull folds and the
// frontier walk need no membership test). One bit per vertex in a []uint64
// word array, with popcount-based size tracking. The engine always keeps the
// frontier as a sorted []uint32 slice; the bitmap is a materialized view of
// that slice, built before such an iteration (O(|F|) sets) and torn down
// after it (O(|F|) clears), so its cost scales with the frontier, never with
// V — except the one-time allocation.
type bitmap struct {
	words []uint64
	n     int // set bits, maintained incrementally
}

// newBitmap returns an all-zero bitmap covering vertices [0, v).
func newBitmap(v uint32) *bitmap {
	return &bitmap{words: make([]uint64, (uint64(v)+63)/64)}
}

// set marks vertex u; idempotent.
func (b *bitmap) set(u uint32) {
	w, bit := u>>6, uint64(1)<<(u&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.n++
	}
}

// test reports whether vertex u is marked.
func (b *bitmap) test(u uint32) bool {
	return b.words[u>>6]&(uint64(1)<<(u&63)) != 0
}

// clear unmarks vertex u; idempotent.
func (b *bitmap) clear(u uint32) {
	w, bit := u>>6, uint64(1)<<(u&63)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		b.n--
	}
}

// count returns the number of marked vertices (the incrementally tracked
// popcount; recount() is the O(V/64) ground truth the tests check it
// against).
func (b *bitmap) count() int { return b.n }

// recount recomputes the popcount from the words.
func (b *bitmap) recount() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// setAll marks every vertex in vs (a frontier slice).
func (b *bitmap) setAll(vs []uint32) {
	for _, v := range vs {
		b.set(v)
	}
}

// clearAll unmarks every vertex in vs. Paired with setAll around one
// iteration it restores the all-zero state in O(|F|) instead of O(V).
func (b *bitmap) clearAll(vs []uint32) {
	for _, v := range vs {
		b.clear(v)
	}
}
