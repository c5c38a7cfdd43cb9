package graph

import (
	"slices"
	"testing"
)

// sameTiling fails unless got equals a freshly built tiling of (g, width)
// tile by tile, validates, and keeps every tile slice capped at its length
// (so an append through one tile can never write into its neighbour's part
// of the shared arenas).
func sameTiling(t *testing.T, got *Tiling, g *CSR, width uint32) {
	t.Helper()
	want := NewTiling(g, width)
	if err := validateTiling(got, g); err != nil {
		t.Fatalf("%s width %d: %v", g.Name, width, err)
	}
	if len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("%s width %d: %d tiles, want %d", g.Name, width, len(got.Tiles), len(want.Tiles))
	}
	for k := range want.Tiles {
		a, b := &got.Tiles[k], &want.Tiles[k]
		if a.DstLo != b.DstLo || a.DstHi != b.DstHi {
			t.Fatalf("%s width %d tile %d: range [%d,%d), want [%d,%d)", g.Name, width, k, a.DstLo, a.DstHi, b.DstLo, b.DstHi)
		}
		if !slices.Equal(a.Src, b.Src) || !slices.Equal(a.EdgeStart, b.EdgeStart) ||
			!slices.Equal(a.Dst, b.Dst) || !slices.Equal(a.W, b.W) {
			t.Fatalf("%s width %d tile %d: contents differ from a fresh tiling", g.Name, width, k)
		}
		if cap(a.Src) != len(a.Src) || cap(a.EdgeStart) != len(a.EdgeStart) || cap(a.Dst) != len(a.Dst) || cap(a.W) != len(a.W) {
			t.Fatalf("%s width %d tile %d: a slice has spare capacity inside the shared arena", g.Name, width, k)
		}
	}
}

// TestTilingReuse rebuilds one tiling through buffers last used for another
// graph, for finer and coarser widths, and across the degenerate shapes:
// whatever the buffers held before, the result is the fresh tiling.
func TestTilingReuse(t *testing.T) {
	a := Kronecker("a", 10, 8, 5)
	b := Uniform("b", 300, 3, 2)
	big := Kronecker("big", 11, 8, 9)

	tl := NewTiling(a, 64)
	sameTiling(t, tl, a, 64)
	steps := []struct {
		g     *CSR
		width uint32
	}{
		{b, 50},      // a different, smaller graph
		{a, 16},      // finer: more tiles, more source groups
		{a, 512},     // coarser
		{a, 0},       // untiled
		{big, 100},   // larger than anything before: every arena grows
		{b, 1},       // one destination per tile
		{a, a.V * 2}, // wider than the graph
	}
	for _, s := range steps {
		tl.Rebuild(s.g, s.width)
		sameTiling(t, tl, s.g, s.width)
	}

	// The degenerate shapes, each through buffers dirtied by a real graph,
	// and a real graph again after each.
	for name, g := range degenerateGraphs() {
		for _, width := range []uint32{0, 4} {
			tl.Rebuild(g, width)
			sameTiling(t, tl, g, width)
			if g.V == 0 && len(tl.Tiles) != 0 {
				t.Fatalf("%s: V=0 tiling has %d tiles", name, len(tl.Tiles))
			}
			if g.V > 0 && width == 0 && len(tl.Tiles) != 1 {
				t.Fatalf("%s: untiled rebuild has %d tiles", name, len(tl.Tiles))
			}
			tl.Rebuild(a, 64)
			sameTiling(t, tl, a, 64)
		}
	}
}

// TestTilingReuseDoesNotAllocate: once a tiling has held the largest graph
// and the finest width it is asked for, rebuilding it allocates nothing.
func TestTilingReuseDoesNotAllocate(t *testing.T) {
	a := Kronecker("a", 10, 8, 5)
	b := Uniform("b", 300, 3, 2)
	tl := NewTiling(a, 16)
	if n := testing.AllocsPerRun(10, func() {
		tl.Rebuild(b, 50)
		tl.Rebuild(a, 512)
		tl.Rebuild(a, 16)
	}); n != 0 {
		t.Errorf("Rebuild into warm buffers allocates %v times, want 0", n)
	}
}
