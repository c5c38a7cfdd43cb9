package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"piccolo/internal/graph"
)

// requireRowsOf fails naming the first source whose row in e differs from
// g's.
func requireRowsOf(t *testing.T, e *Engine, g *graph.CSR) {
	t.Helper()
	for u := uint32(0); u < g.V; u++ {
		col, w := e.row(u)
		wantCol, wantW := g.Neighbors(u)
		if !slices.Equal(col, wantCol) || !slices.Equal(w, wantW) {
			t.Fatalf("row %d is %v/%v, want %v/%v", u, col, w, wantCol, wantW)
		}
	}
}

// TestIndexMatchesRows requires the index an engine holds — pull tiles and
// row chunks — to be the one its graph's rows give: on a CSR, whose rows the
// chunks alias uncopied; on a segment whose tiny blocks split the hub rows,
// decoded once into the same rows and the same tiles; and on an engine
// reached by Advance. At 1 and 5 shards and 64-wide and default tiles. No
// edge leaves the upper half of the vertex range, so 64-wide tiles there are
// empty; the graph holds multi-edges (also at other weights), self-loops and
// a hub whose row spans several blocks.
func TestIndexMatchesRows(t *testing.T) {
	const v = 512
	rng := rand.New(rand.NewSource(38))
	var edges []graph.Edge
	for i := 0; i < 2500; i++ {
		e := graph.Edge{Src: uint32(rng.Intn(v / 2)), Dst: uint32(rng.Intn(v)), Weight: uint8(1 + rng.Intn(255))}
		switch rng.Intn(10) {
		case 0:
			e.Dst = e.Src
		case 1:
			if i > 0 {
				e.Src, e.Dst = edges[rng.Intn(i)].Src, edges[rng.Intn(i)].Dst
			}
		case 2:
			e.Src = 7 // the hub
		}
		edges = append(edges, e)
	}
	g := graph.FromEdges("tiles", v, edges)
	if g.OutDeg(7) < 4*64 {
		t.Fatalf("hub has %d out-edges, too few to span blocks", g.OutDeg(7))
	}
	seg := openTestSegment(t, g, 64)
	batch := randomEdges(rng, v/2, 300)
	ng := insertEdges(g, batch)
	for _, shards := range []int{1, 5} {
		for _, width := range []uint32{64, 0} {
			cfg := Config{Workers: 2, shards: shards, tileSourceWidth: width}
			t.Run(fmt.Sprintf("shards=%d/tile=%d", shards, width), func(t *testing.T) {
				e := New(g, cfg)
				t.Run("csr", func(t *testing.T) {
					requireRowsOf(t, e, g)
					for u := uint32(0); u < g.V; u++ {
						if col, _ := e.row(u); len(col) > 0 && &col[0] != &g.Col[g.RowPtr[u]] {
							t.Fatalf("row %d is a copy of the CSR's", u)
						}
					}
				})
				t.Run("segment", func(t *testing.T) {
					se := NewFromStore(seg, cfg)
					requireRowsOf(t, se, g)
					requireSamePull(t, se.pull, e.pull)
				})
				t.Run("advanced", func(t *testing.T) {
					next, _ := e.Advance(batch)
					requireRowsOf(t, next, ng)
					requireSamePull(t, next.pull, rebuiltPull(e, ng, cfg))
				})
			})
		}
	}
}
