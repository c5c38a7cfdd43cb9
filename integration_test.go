package piccolo

// Cross-module integration and property tests: random workloads through
// the full stack, asserting the DESIGN.md §5 invariants end to end.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piccolo/internal/graph"
)

type edgeT = graph.Edge

func edgeOf(s, d uint32) edgeT { return graph.Edge{Src: s, Dst: d, Weight: 1} }

func rebuild(name string, v uint32, edges []edgeT) *Graph {
	return graph.FromEdges(name, v, edges)
}

// Property: for random graphs, any system × kernel × tile width produces
// properties bit-identical to the reference executor.
func TestPropertyAnySystemMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64, sysRaw, kernelRaw, tileRaw uint8) bool {
		g := GenerateKronecker("prop", 8, 4, seed)
		sys := Systems()[int(sysRaw)%len(Systems())]
		names := KernelNames()
		kernel := names[int(kernelRaw)%len(names)]
		cfg := Config{
			System:    sys,
			Kernel:    kernel,
			Scale:     ScaleTiny,
			TileScale: []int{0, 1, 3, 7}[int(tileRaw)%4],
			MaxIters:  12,
			Src:       -1,
		}
		res, err := Run(cfg, g)
		if err != nil {
			return false
		}
		return Validate(cfg, g, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: simulations are deterministic — same config, same graph, same
// cycle count and stats.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		g := GenerateKronecker("det", 8, 4, seed)
		cfg := Config{System: SystemPiccolo, Kernel: "sssp", Scale: ScaleTiny, Src: -1}
		a, err := Run(cfg, g)
		if err != nil {
			return false
		}
		b, err := Run(cfg, g)
		if err != nil {
			return false
		}
		return a.Cycles == b.Cycles &&
			a.Mem.TotalTxns() == b.Mem.TotalTxns() &&
			a.Mem.NGather == b.Mem.NGather &&
			a.Cache.Hits == b.Cache.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: physical conservation — bus bytes can never exceed what the
// channel could move in the measured cycles, and every gather moves at
// most ItemsPerOp words.
func TestPropertyBandwidthConservation(t *testing.T) {
	f := func(seed int64, sysRaw uint8) bool {
		g := GenerateKronecker("bw", 9, 6, seed)
		sys := Systems()[int(sysRaw)%len(Systems())]
		cfg := Config{System: sys, Kernel: "pr", Scale: ScaleTiny, MaxIters: 2, Src: -1}
		res, err := Run(cfg, g)
		if err != nil || res.Cycles == 0 {
			return false
		}
		mem := DDR4(16)
		peakBytes := float64(res.Cycles) * mem.PeakBandwidthGBps()
		if float64(res.Mem.TotalBusBytes()) > peakBytes {
			return false
		}
		if res.Mem.NGather > 0 {
			wordsPerOp := float64(res.Mem.InternalReads) / float64(res.Mem.NGather)
			if wordsPerOp > 8.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Failure injection: degenerate graphs must simulate cleanly on every
// system.
func TestDegenerateGraphs(t *testing.T) {
	cases := map[string]*Graph{
		"no-vertices": rebuild("v0", 0, nil),
		"no-edges":    GenerateUniform("empty", 64, 0, 1),
		"self-loops":  selfLoopGraph(32),
		"star":        starGraph(256),
		"singleton":   GenerateUniform("one", 1, 0, 1),
	}
	for name, g := range cases {
		for _, sys := range Systems() {
			cfg := Config{System: sys, Kernel: "bfs", Scale: ScaleTiny, Src: 0, MaxIters: 10}
			res, err := Run(cfg, g)
			if err != nil {
				t.Errorf("%s/%s: %v", name, sys, err)
				continue
			}
			if err := Validate(cfg, g, res); err != nil {
				t.Errorf("%s/%s: %v", name, sys, err)
			}
		}
	}
}

func selfLoopGraph(n uint32) *Graph {
	g := GenerateUniform("loops", n, 2, 3)
	// Rebuild with every vertex also pointing at itself.
	edges := g.Edges()
	for v := uint32(0); v < n; v++ {
		edges = append(edges, edgeOf(v, v))
	}
	return rebuild("loops", n, edges)
}

func starGraph(n uint32) *Graph {
	var edges []edgeT
	for v := uint32(1); v < n; v++ {
		edges = append(edges, edgeOf(0, v))
	}
	return rebuild("star", n, edges)
}

// Stress: a heavy-tailed graph with a huge hub exercising merge paths in
// the collection MSHR (many edges into one destination word).
func TestHubMergeStress(t *testing.T) {
	var edges []edgeT
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4000; i++ {
		src := uint32(rng.Intn(512))
		edges = append(edges, edgeOf(src, 7)) // everything points at vertex 7
	}
	g := rebuild("hub", 512, edges)
	cfg := Config{System: SystemPiccolo, Kernel: "cc", Scale: ScaleTiny, Src: -1, MaxIters: 20}
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg, g, res); err != nil {
		t.Error(err)
	}
	// The hub word is fetched once and then hits in Piccolo-cache; the hit
	// rate must reflect the extreme reuse.
	if res.Cache.HitRate() < 0.9 {
		t.Errorf("hub hit rate %.2f, want ≥ 0.9 (one fetch, thousands of reuses)", res.Cache.HitRate())
	}
}

// Every memory preset must drive every system to reference-identical
// results (timing never affects values).
func TestAllMemoryPresetsAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("preset sweep")
	}
	g := GenerateKronecker("mems", 9, 5, 11)
	for _, mem := range []MemoryConfig{DDR4(4), DDR4(8), DDR4(16), LPDDR4(), GDDR5(), HBM(), Enhanced(DDR4(4)), Enhanced(HBM())} {
		for _, sys := range Systems() {
			cfg := Config{System: sys, Kernel: "sswp", Scale: ScaleTiny, Mem: mem, Src: -1}
			res, err := Run(cfg, g)
			if err != nil {
				t.Fatalf("%s/%s: %v", mem.Name, sys, err)
			}
			if err := Validate(cfg, g, res); err != nil {
				t.Errorf("%s/%s: %v", mem.Name, sys, err)
			}
		}
	}
}
