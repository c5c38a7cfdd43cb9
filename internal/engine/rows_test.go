package engine_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// requireRows fails naming the first source whose row in e differs from g's.
func requireRows(t *testing.T, e *engine.Engine, g *graph.CSR) {
	t.Helper()
	for u := uint32(0); u < g.V; u++ {
		col, w := engine.RowOf(e, u)
		wantCol, wantW := g.Neighbors(u)
		if !slices.Equal(col, wantCol) || !slices.Equal(w, wantW) {
			t.Fatalf("row %d is %v/%v, want %v/%v", u, col, w, wantCol, wantW)
		}
	}
}

// snapshot deep-copies every row of e, so a test can prove Advance left its
// receiver's alone.
func snapshot(e *engine.Engine, v uint32) [][]uint32 {
	rows := make([][]uint32, 0, 2*v)
	for u := uint32(0); u < v; u++ {
		col, w := engine.RowOf(e, u)
		ws := make([]uint32, len(w))
		for i, x := range w {
			ws[i] = uint32(x)
		}
		rows = append(rows, slices.Clone(col), ws)
	}
	return rows
}

// rowsTestGraph is 1000 vertices (the last row chunk is short) with out-edges
// only from the lower half, so insertions also open empty rows, plus
// multi-edges, self-loops and a hub.
func rowsTestGraph(rng *rand.Rand) *graph.CSR {
	const v = 1000
	var edges []graph.Edge
	for i := 0; i < 6000; i++ {
		e := graph.Edge{Src: uint32(rng.Intn(v / 2)), Dst: uint32(rng.Intn(v)), Weight: uint8(1 + rng.Intn(255))}
		switch rng.Intn(10) {
		case 0:
			e.Dst = e.Src
		case 1:
			if i > 0 {
				e.Src, e.Dst = edges[rng.Intn(i)].Src, edges[rng.Intn(i)].Dst
			}
		case 2:
			e.Src = 63 // the hub, last source of the first chunk
		}
		edges = append(edges, e)
	}
	return graph.FromEdges("rows", v, edges)
}

// TestAdvancedRowsMatchMaterialized chains an engine through versions of
// seeded random batches — repeats of existing edges at new weights, which
// must land after their copies; self-loops; sources new to the graph — and
// requires at every version that it holds, row for row, the rows of New on
// stream.Overlay's materialized graph. Meanwhile goroutines run every push
// kernel, pinned to push, on the version before, whose rows must stay as
// they were: under -race that proves Advance only reads them.
func TestAdvancedRowsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := rowsTestGraph(rng)
	ov := stream.NewOverlay(base)
	e := engine.New(base, engine.Config{Workers: 2})
	for ver, size := range []int{1, 2, 7, 64, 700, 5, 3000, 1} {
		g := ov.Materialized()
		var wg sync.WaitGroup
		for _, name := range []string{"bfs", "sssp", "cc"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k, _ := algorithms.New(name)
				want := algorithms.RunReference(g, k, 63, 100)
				got, err := e.RunCtx(context.Background(), k, 63, 100, engine.ForcePush)
				if err != nil {
					t.Errorf("version %d %s: %v", ver, name, err)
				} else if !slices.Equal(got.Prop, want.Prop) {
					t.Errorf("version %d %s: properties differ from the reference", ver, name)
				}
			}()
		}
		before := snapshot(e, g.V)
		batch := make([]stream.EdgeUpdate, size)
		for i := range batch {
			u := stream.EdgeUpdate{Src: uint32(rng.Intn(int(g.V))), Dst: uint32(rng.Intn(int(g.V))), Weight: uint8(1 + rng.Intn(255))}
			switch rng.Intn(4) {
			case 0:
				u.Dst = u.Src
			case 1:
				if col, _ := engine.RowOf(e, u.Src); len(col) > 0 {
					u.Dst = col[rng.Intn(len(col))]
				}
			}
			batch[i] = u
		}
		if err := ov.Apply(batch); err != nil {
			t.Fatal(err)
		}
		inserted := make([]graph.Edge, len(batch))
		for i, u := range batch {
			inserted[i] = graph.Edge(u)
		}
		next, _ := e.Advance(inserted)
		requireRows(t, next, ov.Materialized())
		wg.Wait()
		if !slices.EqualFunc(snapshot(e, g.V), before, slices.Equal) {
			t.Fatalf("version %d: Advance wrote its receiver's rows", ver)
		}
		e = next
	}
}

// TestIndexBytes bounds a Kronecker graph's engine plus CSR at 10 B/edge —
// CSR 5.5, pull index 4.3, no second copy of the edges — and checks what
// IndexBytes adds for a decoded segment and for rewritten chunks.
func TestIndexBytes(t *testing.T) {
	g := graph.Kronecker("kronecker", 14, 16, 3)
	e := engine.New(g, engine.Config{Workers: 2})
	csr := 8*uint64(len(g.RowPtr)) + 5*g.E()
	if perEdge := float64(e.IndexBytes()+csr) / float64(g.E()); perEdge > 10 {
		t.Fatalf("engine %d B + CSR %d B over %d edges is %.2f B/edge, want ≤ 10", e.IndexBytes(), csr, g.E(), perEdge)
	}
	if got, want := engine.NewFromStore(openSegment(t, g), engine.Config{Workers: 2}).IndexBytes(), e.IndexBytes()+csr; got != want {
		t.Fatalf("segment-backed engine owns %d B, want the CSR engine's plus its decoded CSR: %d", got, want)
	}
	next, _ := e.Advance([]graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if grew := next.IndexBytes() - e.IndexBytes(); grew < 5*uint64(g.OutDeg(0)) {
		t.Fatalf("one inserted edge grew the index by %d B, less than its rewritten row chunk", grew)
	}
}

// openSegment writes g as a segment file and opens it, closing it on
// cleanup.
func openSegment(t *testing.T, g *graph.CSR) *graph.Segment {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.Name+".pseg")
	if err := g.WriteSegmentFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}
