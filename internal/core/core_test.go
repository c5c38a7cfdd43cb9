package core

import (
	"io"
	"strings"
	"testing"

	"piccolo/internal/accel"
	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/graph"
)

func smallGraph() *graph.CSR {
	return graph.Kronecker("core-test", 10, 8, 123)
}

func TestRunAllSystemsValidate(t *testing.T) {
	g := smallGraph()
	for _, sys := range accel.Systems() {
		cfg := Config{System: sys, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if err := Validate(cfg, g, res); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
		if res.Cycles == 0 || res.Energy.Total() <= 0 {
			t.Errorf("%s: degenerate result: cycles=%d energy=%v", sys, res.Cycles, res.Energy.Total())
		}
	}
}

func TestRunAllKernels(t *testing.T) {
	g := smallGraph()
	for _, kname := range []string{"pr", "bfs", "cc", "sssp", "sswp"} {
		cfg := Config{System: accel.Piccolo, Kernel: kname, Scale: graph.ScaleTiny, Src: -1, MaxIters: 10}
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", kname, err)
		}
		if err := Validate(cfg, g, res); err != nil {
			t.Errorf("%s: %v", kname, err)
		}
	}
}

func TestRunRejectsUnknownKernel(t *testing.T) {
	if _, err := Run(Config{System: accel.Piccolo, Kernel: "wcc"}, smallGraph()); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := smallGraph()
	res, err := Run(Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnChipBytes != 1<<10 {
		t.Errorf("tiny-scale on-chip = %d, want floor 1KB", res.OnChipBytes)
	}
	if res.TileWidth != uint32(res.OnChipBytes/8)*8 {
		t.Errorf("tile width %d, want ×8 of perfect", res.TileWidth)
	}
	// Baselines get the larger on-chip memory (4.5MB vs 4MB equivalent).
	resBase, err := Run(Config{System: accel.GraphDynsCache, Kernel: "bfs", Scale: graph.ScaleSmall, Src: -1}, g)
	if err != nil {
		t.Fatal(err)
	}
	resPic, err := Run(Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleSmall, Src: -1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if resBase.OnChipBytes <= resPic.OnChipBytes {
		t.Errorf("baseline on-chip %d not above piccolo %d", resBase.OnChipBytes, resPic.OnChipBytes)
	}
}

func TestPIMUntiledByDefault(t *testing.T) {
	res, err := Run(Config{System: accel.PIM, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}, smallGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.TileWidth != 0 {
		t.Errorf("PIM tile width %d, want untiled", res.TileWidth)
	}
}

// TestScratchpadTileWidthAsWalked: a scratchpad system walks the tile that
// fits on chip whatever width is asked for, and the result reports the
// width it walked.
func TestScratchpadTileWidthAsWalked(t *testing.T) {
	ds, err := graph.ByName("UU")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Build(graph.ScaleTiny)
	base := Config{System: accel.Graphicionado, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	untiled, x4 := base, base
	untiled.Untiled = true
	x4.TileScale = 4
	var cycles uint64
	for i, cfg := range []Config{untiled, base, x4} {
		res := MustRun(cfg, g)
		if want := uint32(res.OnChipBytes / 8); res.TileWidth != want {
			t.Errorf("config %d: tile width %d, want the on-chip width %d", i, res.TileWidth, want)
		}
		if i == 0 {
			cycles = res.Cycles
		} else if res.Cycles != cycles {
			t.Errorf("config %d: %d cycles, untiled request %d", i, res.Cycles, cycles)
		}
	}
}

// TestRunRejectsUnsortedRow: a hand-built CSR whose row is out of
// destination order fails Validate, the segment encoder and Run, before any
// simulation could drop its edges from their tiles.
func TestRunRejectsUnsortedRow(t *testing.T) {
	g := &graph.CSR{
		Name:   "unsorted",
		V:      4,
		RowPtr: []uint64{0, 2, 3, 3, 3},
		Col:    []uint32{2, 1, 3},
		Weight: []uint8{1, 1, 1},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("Validate = %v, want an unsorted-row error", err)
	}
	if err := g.WriteSegment(io.Discard, 0); err == nil {
		t.Error("WriteSegment encoded an unsorted row")
	}
	for _, sys := range accel.Systems() {
		if _, err := Run(Config{System: sys, Kernel: "bfs", Scale: graph.ScaleTiny, Src: 0}, g); err == nil {
			t.Errorf("%s: Run simulated an unsorted row", sys)
		}
	}
}

func TestMemoryOverride(t *testing.T) {
	cfg := Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Mem: dram.HBM(), Src: -1}
	res, err := Run(cfg, smallGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg, smallGraph(), res); err != nil {
		t.Error(err)
	}
}

func TestBandwidthMetrics(t *testing.T) {
	res, err := Run(Config{System: accel.Piccolo, Kernel: "pr", Scale: graph.ScaleTiny, MaxIters: 2, Src: -1}, smallGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.OffChipGBps <= 0 {
		t.Error("no off-chip bandwidth recorded")
	}
	if res.InternalGBps <= 0 {
		t.Error("no internal bandwidth recorded")
	}
	ddr4 := dram.DDR4(16)
	peak := ddr4.PeakBandwidthGBps()
	if res.OffChipGBps > peak {
		t.Errorf("off-chip bandwidth %.1f exceeds peak %.1f", res.OffChipGBps, peak)
	}
}

func TestExplicitSrc(t *testing.T) {
	g := smallGraph()
	cfg := Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: 5}
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prop[5] != 0 {
		t.Errorf("source vertex level = %d, want 0", res.Prop[5])
	}
	if err := Validate(cfg, g, res); err != nil {
		t.Error(err)
	}
}

func TestTileScaleSweepRuns(t *testing.T) {
	g := smallGraph()
	var prev *Result
	for _, scale := range []int{1, 4, 16} {
		cfg := Config{System: accel.Piccolo, Kernel: "sssp", Scale: graph.ScaleTiny, TileScale: scale, Src: -1}
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for v := range prev.Prop {
				if prev.Prop[v] != res.Prop[v] {
					t.Fatalf("tile scale changed results at vertex %d", v)
				}
			}
		}
		prev = res
	}
}

// TestDefaultCacheEnergy: a run on its system's default cache is charged
// that cache's energy, exactly as a run that names the design.
func TestDefaultCacheEnergy(t *testing.T) {
	g := smallGraph()
	for sys, design := range map[accel.System]string{
		accel.Piccolo:        cache.DesignPiccolo,
		accel.NMP:            cache.DesignPiccolo,
		accel.GraphDynsCache: cache.DesignConventional,
	} {
		cfg := Config{System: sys, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
		def, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		cfg.CacheDesign = design
		named, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if def.Energy != named.Energy {
			t.Errorf("%s: default cache charged %+v, %s %+v", sys, def.Energy, design, named.Energy)
		}
	}
}
