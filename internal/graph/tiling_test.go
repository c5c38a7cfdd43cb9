package graph

import (
	"fmt"
	"testing"
	"testing/quick"
)

// NewTiling builds the destination-range tiling of g with the given width
// (Tiling.Rebuild on a fresh Tiling).
func NewTiling(g *CSR, width uint32) *Tiling {
	t := new(Tiling)
	t.Rebuild(g, width)
	return t
}

// validateTiling checks that t partitions g's edge set exactly: every edge
// appears in exactly one tile, inside its destination range, grouped under
// its source.
func validateTiling(t *Tiling, g *CSR) error {
	var total uint64
	for k := range t.Tiles {
		tl := &t.Tiles[k]
		if len(tl.EdgeStart) != len(tl.Src)+1 {
			return fmt.Errorf("tiling: tile %d has %d sources but %d edge starts", k, len(tl.Src), len(tl.EdgeStart))
		}
		for i := range tl.Src {
			if i > 0 && tl.Src[i] <= tl.Src[i-1] {
				return fmt.Errorf("tiling: tile %d sources not ascending at %d", k, i)
			}
			for e := tl.EdgeStart[i]; e < tl.EdgeStart[i+1]; e++ {
				if tl.Dst[e] < tl.DstLo || tl.Dst[e] >= tl.DstHi {
					return fmt.Errorf("tiling: tile %d edge to %d outside [%d,%d)", k, tl.Dst[e], tl.DstLo, tl.DstHi)
				}
			}
		}
		total += uint64(len(tl.Dst))
	}
	if total != g.E() {
		return fmt.Errorf("tiling: %d edges across tiles, graph has %d", total, g.E())
	}
	return nil
}

func TestTilingPartitionsEdges(t *testing.T) {
	g := Kronecker("k", 10, 8, 5)
	for _, width := range []uint32{0, 1, 64, 100, 1024, g.V, g.V * 2} {
		tl := NewTiling(g, width)
		if err := validateTiling(tl, g); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

func TestTilingSingleTileWhenWide(t *testing.T) {
	g := Uniform("u", 100, 3, 2)
	tl := NewTiling(g, 0)
	if len(tl.Tiles) != 1 {
		t.Errorf("%d tiles, want 1", len(tl.Tiles))
	}
	if uint64(tl.Tiles[0].Edges()) != g.E() {
		t.Errorf("single tile has %d edges, want %d", tl.Tiles[0].Edges(), g.E())
	}
}

func TestTilingTileCount(t *testing.T) {
	g := Uniform("u", 1000, 2, 3)
	tl := NewTiling(g, 300)
	if len(tl.Tiles) != 4 { // ceil(1000/300)
		t.Errorf("%d tiles, want 4", len(tl.Tiles))
	}
	last := tl.Tiles[3]
	if last.DstLo != 900 || last.DstHi != 1000 {
		t.Errorf("last tile range [%d,%d), want [900,1000)", last.DstLo, last.DstHi)
	}
}

// Property: for random graphs and widths, every edge of g appears exactly
// once across tiles, in the right tile, under the right source.
func TestTilingExactCoverProperty(t *testing.T) {
	f := func(seed int64, widthRaw uint16) bool {
		g := Kronecker("k", 8, 4, seed)
		width := uint32(widthRaw%300) + 1
		tl := NewTiling(g, width)
		if validateTiling(tl, g) != nil {
			return false
		}
		// Rebuild the edge multiset from tiles and compare counts per
		// (src,dst) pair.
		counts := map[[2]uint32]int{}
		for u := uint32(0); u < g.V; u++ {
			dsts, _ := g.Neighbors(u)
			for _, v := range dsts {
				counts[[2]uint32{u, v}]++
			}
		}
		for k := range tl.Tiles {
			tile := &tl.Tiles[k]
			for i, u := range tile.Src {
				for e := tile.EdgeStart[i]; e < tile.EdgeStart[i+1]; e++ {
					key := [2]uint32{u, tile.Dst[e]}
					counts[key]--
					if counts[key] == 0 {
						delete(counts, key)
					}
				}
			}
		}
		return len(counts) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDatasets(t *testing.T) {
	for _, d := range RealWorld() {
		g := d.Build(ScaleTiny)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if g.Name != d.Name {
			t.Errorf("built graph named %q, want %q", g.Name, d.Name)
		}
		if g.E() == 0 {
			t.Errorf("%s: empty", d.Name)
		}
	}
	for _, d := range Synthetic() {
		g := d.Build(ScaleTiny)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestDatasetRelativeShapes(t *testing.T) {
	// The proxies must preserve the paper's qualitative dataset properties.
	byName := map[string]*CSR{}
	for _, d := range RealWorld() {
		byName[d.Name] = d.Build(ScaleTiny)
	}
	if byName["UU"].AvgDegree() > 4 {
		t.Errorf("UU proxy avg degree %.1f, want ~3 (sparse)", byName["UU"].AvgDegree())
	}
	if byName["TW"].AvgDegree() < byName["SW"].AvgDegree() {
		t.Error("TW proxy should be denser than SW")
	}
	if byName["FS"].AvgDegree() < 2*byName["UU"].AvgDegree() {
		t.Error("FS proxy should be much denser than UU")
	}
}

func TestDatasetScaleOrdering(t *testing.T) {
	d, err := ByName("SW")
	if err != nil {
		t.Fatal(err)
	}
	tiny, small := d.Build(ScaleTiny), d.Build(ScaleSmall)
	if tiny.V >= small.V {
		t.Errorf("tiny V %d not smaller than small V %d", tiny.V, small.V)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestByNameAllocatesNothing keeps the dataset lookup off the allocator: it
// runs once per runner query (Runner.Graph). The table is built once, a known
// name costs a scan, and an unknown one costs only its error value.
func TestByNameAllocatesNothing(t *testing.T) {
	for _, d := range append(RealWorld(), Synthetic()...) {
		got, err := ByName(d.Name)
		if err != nil || got.Name != d.Name || got.Brief != d.Brief {
			t.Fatalf("ByName(%q) = %+v, %v", d.Name, got, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("KN28"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ByName of a known dataset allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := lookup("NOPE"); ok {
			t.Fatal("unknown dataset found")
		}
	}); n != 0 {
		t.Errorf("looking up an unknown dataset allocates %v times per call, want 0", n)
	}
}

func TestCapacityFactor(t *testing.T) {
	if f := ScaleSmall.CapacityFactor(); f != 1 {
		t.Errorf("small factor %v, want 1", f)
	}
	if f := ScaleTiny.CapacityFactor(); f != 0.125 {
		t.Errorf("tiny factor %v, want 1/8", f)
	}
	if f := ScaleMedium.CapacityFactor(); f != 4 {
		t.Errorf("medium factor %v, want 4", f)
	}
}

func TestHighestDegreeVertex(t *testing.T) {
	g := FromEdges("h", 5, []Edge{{2, 0, 1}, {2, 1, 1}, {2, 3, 1}, {0, 1, 1}})
	if got, ok := HighestDegreeVertex(g); !ok || got != 2 {
		t.Errorf("HighestDegreeVertex = %d, want 2", got)
	}
}
