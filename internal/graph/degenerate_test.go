package graph

import (
	"bytes"
	"strings"
	"testing"
)

// degenerateGraphs is the shared table of boundary-shape graphs every
// topology consumer must survive: the zero-vertex graph, edge-free graphs,
// a single vertex with only a self-loop, and an all-isolated vertex set.
func degenerateGraphs() map[string]*CSR {
	return map[string]*CSR{
		"v0":        FromEdges("v0", 0, nil),
		"e0":        FromEdges("e0", 5, nil),
		"self-loop": FromEdges("self-loop", 1, []Edge{{Src: 0, Dst: 0, Weight: 3}}),
		"isolated":  FromEdges("isolated", 8, nil),
	}
}

// TestDegenerateGraphs drives every degenerate shape through the topology
// consumers: BuildCSC, the segment encoder/decoder, and HighestDegreeVertex
// (once an index out of range at V=0). The simulator's run over the same
// shapes is the root package's TestDegenerateGraphs.
func TestDegenerateGraphs(t *testing.T) {
	for name, g := range degenerateGraphs() {
		t.Run(name, func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}

			c := BuildCSC(g)
			if c.V != g.V || uint64(len(c.Row)) != g.E() {
				t.Fatalf("CSC shape (%d, %d), want (%d, %d)", c.V, len(c.Row), g.V, g.E())
			}

			var buf bytes.Buffer
			if err := g.WriteSegment(&buf, 0); err != nil {
				t.Fatalf("segment encode: %v", err)
			}
			s, err := parseSegment(buf.Bytes())
			if err != nil {
				t.Fatalf("segment decode: %v", err)
			}
			checkSegmentMatches(t, s, g)

			v, ok := HighestDegreeVertex(g)
			wantOK := g.V > 0
			if ok != wantOK || v != 0 {
				t.Fatalf("HighestDegreeVertex = (%d, %v), want (0, %v)", v, ok, wantOK)
			}
		})
	}
}

// TestFromEdgesOutOfRange is the regression test for silent RowPtr
// corruption: an edge endpoint at or beyond V must be rejected loudly at
// construction, not crash (or worse, mis-count) downstream.
func TestFromEdgesOutOfRange(t *testing.T) {
	cases := []struct {
		name  string
		v     uint32
		edges []Edge
	}{
		{"src", 4, []Edge{{Src: 4, Dst: 0, Weight: 1}}},
		{"dst", 4, []Edge{{Src: 0, Dst: 7, Weight: 1}}},
		{"both-at-v0", 0, []Edge{{Src: 0, Dst: 0, Weight: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("FromEdges accepted an out-of-range edge")
				}
				if msg, _ := p.(string); !strings.Contains(msg, "out of range") {
					t.Fatalf("panic %v does not name the violation", p)
				}
			}()
			FromEdges(tc.name, tc.v, tc.edges)
		})
	}
}

// TestHighestDegreeVertexEmpty is the regression test for the V=0 index
// panic: the old signature returned a vertex id unconditionally and
// indexed RowPtr[1] on an empty graph.
func TestHighestDegreeVertexEmpty(t *testing.T) {
	if v, ok := HighestDegreeVertex(FromEdges("v0", 0, nil)); ok || v != 0 {
		t.Fatalf("got (%d, %v), want (0, false)", v, ok)
	}
	if _, ok := HighestDegreeVertexStore(AsStore(FromEdges("v0", 0, nil))); ok {
		t.Fatal("store variant reported ok on an empty graph")
	}
}
