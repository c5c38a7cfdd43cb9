// Package graph provides the graph substrate of the Piccolo reproduction:
// CSR storage, synthetic generators matching the paper's dataset classes,
// locality relabeling, the in-edge (CSC) view and the compressed on-disk
// segment format (segment.go).
package graph

import (
	"fmt"
	"math/rand"
)

// Edge is a weighted directed edge used while building graphs.
type Edge struct {
	Src, Dst uint32
	Weight   uint8
}

// CSR is a weighted directed graph in compressed sparse row form. Edges of
// vertex u live in Col/Weight[RowPtr[u]:RowPtr[u+1]] sorted by destination.
type CSR struct {
	Name   string
	V      uint32
	RowPtr []uint64
	Col    []uint32
	Weight []uint8
}

// E returns the number of directed edges.
func (g *CSR) E() uint64 { return uint64(len(g.Col)) }

// OutDeg returns the out-degree of vertex u.
func (g *CSR) OutDeg(u uint32) uint32 {
	return uint32(g.RowPtr[u+1] - g.RowPtr[u])
}

// Neighbors returns the destination and weight slices of vertex u. The
// returned slices alias the CSR arrays and must not be modified.
func (g *CSR) Neighbors(u uint32) ([]uint32, []uint8) {
	lo, hi := g.RowPtr[u], g.RowPtr[u+1]
	return g.Col[lo:hi], g.Weight[lo:hi]
}

// AvgDegree returns the average out-degree.
func (g *CSR) AvgDegree() float64 {
	if g.V == 0 {
		return 0
	}
	return float64(g.E()) / float64(g.V)
}

// Validate checks structural invariants of the CSR — monotone RowPtr
// covering exactly E edges, in-range destinations, and every row sorted
// ascending by destination, the order the simulator's tile walk relies on —
// and returns the first violation found, or nil.
func (g *CSR) Validate() error {
	if uint64(len(g.RowPtr)) != uint64(g.V)+1 {
		return fmt.Errorf("graph: rowptr length %d, want %d", len(g.RowPtr), g.V+1)
	}
	if len(g.Col) != len(g.Weight) {
		return fmt.Errorf("graph: col length %d != weight length %d", len(g.Col), len(g.Weight))
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: rowptr[0] = %d, want 0", g.RowPtr[0])
	}
	if g.RowPtr[g.V] != g.E() {
		return fmt.Errorf("graph: rowptr[V] = %d, want %d", g.RowPtr[g.V], g.E())
	}
	for u := uint32(0); u < g.V; u++ {
		if g.RowPtr[u] > g.RowPtr[u+1] {
			return fmt.Errorf("graph: rowptr not monotone at vertex %d", u)
		}
	}
	for u := uint32(0); u < g.V; u++ {
		dsts, _ := g.Neighbors(u)
		for i, v := range dsts {
			if v >= g.V {
				return fmt.Errorf("graph: edge %d destination %d out of range (V=%d)", g.RowPtr[u]+uint64(i), v, g.V)
			}
			if i > 0 && v < dsts[i-1] {
				return fmt.Errorf("graph: out-edges of %d not sorted by destination at %d", u, i)
			}
		}
	}
	return nil
}

// FromEdges builds a CSR from an edge list, sorted by (src, dst) with equal
// pairs in input order: a stable counting sort by destination, then by
// source, O(V+E) with a 12 B/edge temporary (BuildCSC's idiom). Multi-edges
// and self-loops are kept; edges is not modified.
func FromEdges(name string, v uint32, edges []Edge) *CSR {
	g := &CSR{
		Name:   name,
		V:      v,
		RowPtr: make([]uint64, v+1),
		Col:    make([]uint32, len(edges)),
		Weight: make([]uint8, len(edges)),
	}
	next := make([]uint64, v+1) // destination counts, then fill cursors
	for _, e := range edges {
		// An out-of-range endpoint would otherwise surface as an opaque
		// index-out-of-range on RowPtr (or worse, as silent corruption when
		// only Dst is bad); fail loudly at the boundary instead.
		if e.Src >= v || e.Dst >= v {
			panic(fmt.Sprintf("graph: FromEdges(%q, V=%d): edge %d->%d out of range", name, v, e.Src, e.Dst))
		}
		g.RowPtr[e.Src+1]++
		next[e.Dst+1]++
	}
	for u := uint32(0); u < v; u++ {
		g.RowPtr[u+1] += g.RowPtr[u]
		next[u+1] += next[u]
	}
	byDst := make([]Edge, len(edges))
	for _, e := range edges {
		p := next[e.Dst]
		next[e.Dst] = p + 1
		byDst[p] = e
	}
	copy(next, g.RowPtr)
	for _, e := range byDst {
		p := next[e.Src]
		next[e.Src] = p + 1
		g.Col[p] = e.Dst
		g.Weight[p] = e.Weight
	}
	return g
}

// Edges returns the graph as an edge list (mainly for tests and rebuilds).
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.E())
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		for i, v := range dsts {
			out = append(out, Edge{Src: u, Dst: v, Weight: ws[i]})
		}
	}
	return out
}

// Relabel returns a new CSR where vertex u of g becomes perm[u]. perm must
// be a permutation of [0, V).
func (g *CSR) Relabel(perm []uint32) (*CSR, error) {
	if uint32(len(perm)) != g.V {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), g.V)
	}
	seen := make([]bool, g.V)
	for _, p := range perm {
		if p >= g.V || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.E())
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		for i, v := range dsts {
			edges = append(edges, Edge{Src: perm[u], Dst: perm[v], Weight: ws[i]})
		}
	}
	return FromEdges(g.Name, g.V, edges), nil
}

// ShufflePerm returns a uniformly random permutation of [0, v); relabeling
// with it destroys vertex-ordering locality (the Friendster-like regime).
func ShufflePerm(v uint32, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]uint32, v)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// BFSOrderPerm returns a permutation that relabels vertices in BFS discovery
// order from vertex 0 (unreached vertices keep relative order at the end).
// Relabeling with it concentrates neighbor IDs, the Twitter-like
// high-locality regime the paper describes for TW.
func BFSOrderPerm(g *CSR) []uint32 {
	perm := make([]uint32, g.V)
	visited := make([]bool, g.V)
	next := uint32(0)
	queue := make([]uint32, 0, g.V)
	for start := uint32(0); start < g.V; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			perm[u] = next
			next++
			dsts, _ := g.Neighbors(u)
			for _, v := range dsts {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return perm
}
