package accel

import (
	"fmt"
	"math/rand"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/dram"
	"piccolo/internal/graph"
	"piccolo/internal/sim"
)

// TestTileWalkVisitsEveryEdgeOnce runs one all-active iteration on random
// graphs with multi-edges, self-loops and an empty upper half (no edge
// leaves or enters it, so its tiles are empty), at widths from one vertex
// per tile to untiled. The cursor walk must process every edge exactly once
// and visit each source once in every tile it has edges into — the
// (tile, source) pairs a bucketing of the edges by destination counts.
func TestTileWalkVisitsEveryEdgeOnce(t *testing.T) {
	const v = 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		for i := 0; i < 1500; i++ {
			e := graph.Edge{Src: uint32(rng.Intn(v / 2)), Dst: uint32(rng.Intn(v / 2)), Weight: uint8(1 + rng.Intn(255))}
			switch rng.Intn(8) {
			case 0:
				e.Dst = e.Src
			case 1:
				if i > 0 {
					e.Src, e.Dst = edges[i-1].Src, edges[i-1].Dst
				}
			}
			edges = append(edges, e)
		}
		g := graph.FromEdges(fmt.Sprintf("walk%d", seed), v, edges)
		k := algorithms.PageRank{}
		ref := algorithms.RunReference(g, k, 0, 1)
		for _, width := range []uint32{1, 7, 64, v - 1, v, 0} {
			w := width
			if w == 0 {
				w = v
			}
			pairs := map[[2]uint32]bool{}
			for u := uint32(0); u < v; u++ {
				dsts, _ := g.Neighbors(u)
				for _, d := range dsts {
					pairs[[2]uint32{d / w, u}] = true
				}
			}
			res := runSystem(t, Piccolo, g, k, func(c *Config) { c.TileWidth = width; c.MaxIters = 1 })
			if res.EdgesProcessed != g.E() {
				t.Errorf("seed %d width %d: %d edges processed, graph has %d", seed, width, res.EdgesProcessed, g.E())
			}
			if res.SrcVisits != uint64(len(pairs)) {
				t.Errorf("seed %d width %d: %d source visits, want %d (tile, source) pairs", seed, width, res.SrcVisits, len(pairs))
			}
			for u := range ref.Prop {
				if res.Prop[u] != ref.Prop[u] {
					t.Errorf("seed %d width %d: prop[%d] = %#x, reference %#x", seed, width, u, res.Prop[u], ref.Prop[u])
					break
				}
			}
		}
	}
}

// TestTileWalkEmptyGraph: a graph with no vertices has no tiles to walk at
// any width, so every system finishes with nothing processed, nothing
// visited and an empty property array.
func TestTileWalkEmptyGraph(t *testing.T) {
	g := graph.FromEdges("v0", 0, nil)
	for _, sys := range Systems() {
		for _, width := range []uint32{1, 4, 0} {
			q := &sim.Queue{}
			eng, err := NewEngine(Config{System: sys, OnChipBytes: 4 << 10, TileWidth: width, MaxIters: 4}, g, algorithms.PageRank{}, dram.MustNew(dram.DDR4(16), q), q)
			if err != nil {
				t.Fatalf("%s width %d: %v", sys, width, err)
			}
			res, err := eng.Run(0)
			if err != nil {
				t.Fatalf("%s width %d: %v", sys, width, err)
			}
			if res.EdgesProcessed != 0 || res.SrcVisits != 0 || len(res.Prop) != 0 || q.Len() != 0 {
				t.Errorf("%s width %d: %d edges, %d source visits, %d props, %d events pending; want none",
					sys, width, res.EdgesProcessed, res.SrcVisits, len(res.Prop), q.Len())
			}
		}
	}
}
