package graph

import (
	"fmt"
	"testing"
)

// cscGraphs are the transpose test subjects: the three generator families
// the differential suites sweep, plus hand-built shapes that stress the
// stable sort — multi-edges (same (src,dst) with different weights, whose
// relative order only the edge index distinguishes), self-loops, and
// vertices with no edges at all.
func cscGraphs() []*CSR {
	return []*CSR{
		Uniform("uniform", 2000, 4, 11),
		Kronecker("kronecker", 10, 8, 12),
		WattsStrogatz("watts-strogatz", 1024, 6, 0.2, 13),
		FromEdges("multi", 4, []Edge{
			{Src: 0, Dst: 2, Weight: 9}, {Src: 0, Dst: 2, Weight: 3},
			{Src: 0, Dst: 2, Weight: 7}, {Src: 1, Dst: 2, Weight: 1},
			{Src: 3, Dst: 3, Weight: 5}, {Src: 3, Dst: 0, Weight: 2},
		}),
		FromEdges("empty", 7, nil),
		FromEdges("lonely", 1, nil),
	}
}

// TestCSCRoundTrip is the round-trip property: transposing the CSR must
// keep every edge exactly once, and each destination's in-edge row must
// replay the CSR scan order — ascending (source, edge-index) — including
// the weight sequence of multi-edges, which is the only observable that
// distinguishes two parallel edges. The expected rows are built by the
// same scan the reference executor performs, so agreement here is exactly
// the fold-order guarantee the pull engine relies on (DESIGN.md §12).
func TestCSCRoundTrip(t *testing.T) {
	for _, g := range cscGraphs() {
		t.Run(g.Name, func(t *testing.T) {
			c := BuildCSC(g)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			if uint64(len(c.Row)) != g.E() {
				t.Fatalf("csc has %d edges, graph has %d", len(c.Row), g.E())
			}
			// Expected per-destination rows straight from the CSR scan.
			type inEdge struct {
				src uint32
				w   uint8
			}
			exp := make([][]inEdge, g.V)
			for u := uint32(0); u < g.V; u++ {
				dsts, ws := g.Neighbors(u)
				if c.OutDeg[u] != uint32(len(dsts)) {
					t.Fatalf("outdeg[%d] = %d, want %d", u, c.OutDeg[u], len(dsts))
				}
				for i, v := range dsts {
					exp[v] = append(exp[v], inEdge{u, ws[i]})
				}
			}
			for v := uint32(0); v < g.V; v++ {
				row, ws := c.InEdges(v)
				if len(row) != len(exp[v]) {
					t.Fatalf("in-degree of %d = %d, want %d", v, len(row), len(exp[v]))
				}
				for i := range row {
					if row[i] != exp[v][i].src || ws[i] != exp[v][i].w {
						t.Fatalf("in-edge %d of %d = (%d,w%d), want (%d,w%d)",
							i, v, row[i], ws[i], exp[v][i].src, exp[v][i].w)
					}
				}
			}
		})
	}
}

// TestCSCValidateCatches checks Validate rejects structural corruption.
func TestCSCValidateCatches(t *testing.T) {
	g := Uniform("u", 100, 3, 5)
	c := BuildCSC(g)
	if len(c.Row) < 2 {
		t.Skip("graph too small")
	}
	// Find a row with two in-edges and swap out-of-order sources.
	for v := uint32(0); v < c.V; v++ {
		row, _ := c.InEdges(v)
		if len(row) >= 2 && row[0] != row[len(row)-1] {
			row[0], row[len(row)-1] = row[len(row)-1], row[0]
			if err := c.Validate(); err == nil {
				t.Fatal("Validate accepted an unsorted in-edge row")
			}
			return
		}
	}
	t.Skip("no multi-in-edge row found")
}

// TestPullTileWidth pins the planner's sizing rules: half the L2 budget at
// 8 B per source vertex, capped at the vertex count and never zero.
func TestPullTileWidth(t *testing.T) {
	cases := []struct {
		v, want uint32
	}{
		{1 << 20, 32768}, // 512KiB/2/8
		{100, 100},       // width capped at V
		{0, 1},           // vertex-free graph still nonzero
	}
	for _, c := range cases {
		if got := PullTileWidth(c.v); got != c.want {
			t.Errorf("PullTileWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func BenchmarkBuildCSC(b *testing.B) {
	g := Kronecker("KN15", 15, 16, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := BuildCSC(g)
		if uint64(len(c.Row)) != g.E() {
			b.Fatal(fmt.Sprintf("edge count %d != %d", len(c.Row), g.E()))
		}
	}
}
