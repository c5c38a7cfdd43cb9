package graph

import (
	"math/rand"
)

// Uniform generates an Erdős–Rényi-style random graph with v vertices and
// v*avgDeg directed edges chosen uniformly. Degree variance is low; this is
// the building block for low-degree social graphs such as the UU proxy.
func Uniform(name string, v uint32, avgDeg float64, seed int64) *CSR {
	return FromEdges(name, v, uniformEdges(v, avgDeg, seed))
}

func uniformEdges(v uint32, avgDeg float64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	e := uint64(float64(v) * avgDeg)
	edges := make([]Edge, 0, e)
	for i := uint64(0); i < e; i++ {
		edges = append(edges, Edge{
			Src:    uint32(rng.Int63n(int64(v))),
			Dst:    uint32(rng.Int63n(int64(v))),
			Weight: uint8(1 + rng.Intn(255)),
		})
	}
	return edges
}

// Kronecker generates an RMAT/Kronecker graph [50] with 2^scale vertices and
// edgeFactor*2^scale edges using the Graph500 initiator probabilities
// (a=0.57, b=0.19, c=0.19, d=0.05), producing the power-law degree
// distribution of the paper's KN25..KN28 datasets and of the social-network
// proxies.
func Kronecker(name string, scale int, edgeFactor int, seed int64) *CSR {
	return FromEdges(name, uint32(1)<<scale, kroneckerEdges(scale, edgeFactor, seed))
}

func kroneckerEdges(scale int, edgeFactor int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	e := uint64(edgeFactor) << scale
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]Edge, 0, e)
	for i := uint64(0); i < e; i++ {
		var src, dst uint32
		for bit := scale - 1; bit >= 0; bit-- {
			// One draw picks the quadrant: [0,a) upper-left, [a,a+b) sets
			// the dst bit, [a+b,a+b+c) the src bit, the rest both. Compared
			// as flags, not branched on: the quadrant is random, so a
			// branch mispredicts on a large share of bits.
			r := rng.Float64()
			inB, inC, inD := b2u(r >= a), b2u(r >= a+b), b2u(r >= a+b+c)
			src |= inC << bit
			dst |= (inB ^ inC ^ inD) << bit
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Weight: uint8(1 + rng.Intn(255))})
	}
	return edges
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2u(ok bool) uint32 {
	if ok {
		return 1
	}
	return 0
}

// WattsStrogatz generates a small-world graph [95]: a ring lattice where
// every vertex connects to its k nearest clockwise neighbors, with each edge
// rewired to a uniform destination with probability beta. Degrees are
// near-uniform — the paper uses it as the non-power-law workload (WS26/WS27).
func WattsStrogatz(name string, v uint32, k int, beta float64, seed int64) *CSR {
	return FromEdges(name, v, wattsStrogatzEdges(v, k, beta, seed))
}

func wattsStrogatzEdges(v uint32, k int, beta float64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, uint64(v)*uint64(k))
	for u := uint32(0); u < v; u++ {
		for j := 1; j <= k; j++ {
			dst := (u + uint32(j)) % v
			if rng.Float64() < beta {
				dst = uint32(rng.Int63n(int64(v)))
			}
			edges = append(edges, Edge{Src: u, Dst: dst, Weight: uint8(1 + rng.Intn(255))})
		}
	}
	return edges
}
