package accel

import (
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/dram"
	"piccolo/internal/graph"
	"piccolo/internal/sim"
)

func runSystem(t *testing.T, sys System, g *graph.CSR, k algorithms.Kernel, mut func(*Config)) *Result {
	t.Helper()
	q := &sim.Queue{}
	mem := dram.MustNew(dram.DDR4(16), q)
	cfg := Config{
		System:      sys,
		OnChipBytes: 4 << 10,
		TileWidth:   2048,
		MaxIters:    40,
	}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewEngine(cfg, g, k, mem, q)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := graph.HighestDegreeVertex(g)
	res, err := eng.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	// A finished run has drained its queue, so the accounting is exact.
	if q.Len() != 0 || res.Events == 0 || res.Events != q.Fired() || res.FarEvents != q.Far() || res.FarEvents > res.Events {
		t.Errorf("%s: Events/FarEvents = %d/%d, queue fired %d (%d far) with %d pending", sys, res.Events, res.FarEvents, q.Fired(), q.Far(), q.Len())
	}
	return res
}

func testGraph() *graph.CSR {
	g := graph.Kronecker("t", 11, 8, 77) // 2048 vertices, ~16K edges
	return g
}

// The DESIGN.md §5 invariant: every system produces bit-identical
// properties, equal to the simulation-free reference.
func TestAllSystemsMatchReference(t *testing.T) {
	g := testGraph()
	src, _ := graph.HighestDegreeVertex(g)
	for _, name := range algorithms.Names() {
		k, _ := algorithms.New(name)
		ref := algorithms.RunReference(g, k, src, 40)
		for _, sys := range Systems() {
			res := runSystem(t, sys, g, k, nil)
			if res.Iterations != ref.Iterations {
				t.Errorf("%s/%s: %d iterations, reference %d", sys, k.Name(), res.Iterations, ref.Iterations)
				continue
			}
			for v := range ref.Prop {
				if res.Prop[v] != ref.Prop[v] {
					t.Errorf("%s/%s: prop[%d] = %#x, reference %#x", sys, k.Name(), v, res.Prop[v], ref.Prop[v])
					break
				}
			}
			if res.EdgesProcessed != ref.EdgeVisits {
				t.Errorf("%s/%s: processed %d edges, reference %d", sys, k.Name(), res.EdgesProcessed, ref.EdgeVisits)
			}
			if res.Cycles == 0 {
				t.Errorf("%s/%s: zero cycles", sys, k.Name())
			}
		}
	}
}

func TestResultsIndependentOfTileWidth(t *testing.T) {
	g := testGraph()
	k := algorithms.SSSP{}
	base := runSystem(t, Piccolo, g, k, func(c *Config) { c.TileWidth = 0 })
	for _, w := range []uint32{64, 257, 1024} {
		res := runSystem(t, Piccolo, g, k, func(c *Config) { c.TileWidth = w })
		for v := range base.Prop {
			if res.Prop[v] != base.Prop[v] {
				t.Fatalf("width %d: prop[%d] differs", w, v)
			}
		}
	}
}

func TestResultsIndependentOfMemoryConfig(t *testing.T) {
	g := testGraph()
	k := algorithms.BFS{}
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, 40)
	for _, mc := range []dram.Config{dram.DDR4(4), dram.LPDDR4(), dram.HBM()} {
		q := &sim.Queue{}
		mem := dram.MustNew(mc, q)
		eng, err := NewEngine(Config{System: Piccolo, OnChipBytes: 4 << 10, TileWidth: 2048}, g, k, mem, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Prop {
			if res.Prop[v] != ref.Prop[v] {
				t.Fatalf("%s: prop[%d] differs from reference", mc.Name, v)
			}
		}
	}
}

func TestPiccoloBeatsConventionalOnRandomHeavy(t *testing.T) {
	// A low-locality graph much bigger than the cache: the paper's core
	// claim is that fine-grained in-memory gathers beat 64B fills here.
	g := graph.Kronecker("big", 13, 10, 3)
	rg, err := g.Relabel(graph.ShufflePerm(g.V, 9))
	if err != nil {
		t.Fatal(err)
	}
	k := algorithms.PageRank{}
	mut := func(c *Config) { c.MaxIters = 3; c.TileWidth = 0 }
	conv := runSystem(t, GraphDynsCache, rg, k, mut)
	pic := runSystem(t, Piccolo, rg, k, mut)
	speedup := float64(conv.Cycles) / float64(pic.Cycles)
	if speedup < 1.1 {
		t.Errorf("Piccolo speedup %.2f over conventional, want > 1.1", speedup)
	}
	// And it must move fewer bus bytes (Fig. 12's 43.2% reduction).
	if pic.Mem.TotalBusBytes() >= conv.Mem.TotalBusBytes() {
		t.Errorf("Piccolo bus bytes %d not below conventional %d",
			pic.Mem.TotalBusBytes(), conv.Mem.TotalBusBytes())
	}
}

func TestPIMUnderperformsOnHighLocality(t *testing.T) {
	// TW-like: high locality favors cache systems over PIM (§VII-C).
	g := graph.Kronecker("tw", 11, 16, 5)
	rg, err := g.Relabel(graph.BFSOrderPerm(g))
	if err != nil {
		t.Fatal(err)
	}
	k := algorithms.PageRank{}
	mut := func(c *Config) { c.MaxIters = 2 }
	pim := runSystem(t, PIM, rg, k, func(c *Config) { c.MaxIters = 2; c.TileWidth = 0 })
	cached := runSystem(t, GraphDynsCache, rg, k, mut)
	if pim.Cycles <= cached.Cycles {
		t.Errorf("PIM (%d cycles) not slower than cached (%d) on high-locality graph",
			pim.Cycles, cached.Cycles)
	}
}

func TestGatherTrafficOnPiccolo(t *testing.T) {
	g := testGraph()
	res := runSystem(t, Piccolo, g, algorithms.PageRank{}, func(c *Config) { c.MaxIters = 2 })
	if res.Mem.NGather == 0 {
		t.Error("Piccolo run issued no gathers")
	}
	if res.Coll.Flushes == 0 {
		t.Error("collection MSHR never flushed")
	}
	if res.Mem.InternalColOps == 0 {
		t.Error("no internal column operations")
	}
}

func TestNMPUsesRankOps(t *testing.T) {
	g := testGraph()
	res := runSystem(t, NMP, g, algorithms.PageRank{}, func(c *Config) { c.MaxIters = 2 })
	if res.Mem.NNMPGather == 0 {
		t.Error("NMP run issued no rank-level gathers")
	}
	if res.Mem.NGather != 0 {
		t.Error("NMP run issued in-bank gathers")
	}
}

func TestPIMIssuesUpdates(t *testing.T) {
	g := testGraph()
	res := runSystem(t, PIM, g, algorithms.PageRank{}, func(c *Config) { c.MaxIters = 2; c.TileWidth = 0 })
	if res.Mem.NPIMUpdate != res.EdgesProcessed {
		t.Errorf("PIM updates %d != edges %d", res.Mem.NPIMUpdate, res.EdgesProcessed)
	}
}

func TestSPMSystemsHaveNoVtempTraffic(t *testing.T) {
	g := testGraph()
	res := runSystem(t, GraphDynsSPM, g, algorithms.PageRank{}, func(c *Config) { c.MaxIters = 2 })
	if n := res.Mem.PerClass[dram.ClassVTemp].ReadTxns; n != 0 {
		t.Errorf("SPM system read Vtemp from DRAM %d times", n)
	}
	// But perfect tiling repeats topology: more tiles than the cache system.
	cache := runSystem(t, GraphDynsCache, g, algorithms.PageRank{}, func(c *Config) { c.MaxIters = 2 })
	if res.TopoBytes <= cache.TopoBytes {
		t.Errorf("perfect tiling topology bytes %d not above cache system %d",
			res.TopoBytes, cache.TopoBytes)
	}
}

func TestGraphicionadoAppliesWholeTile(t *testing.T) {
	g := testGraph()
	k := algorithms.BFS{}
	gi := runSystem(t, Graphicionado, g, k, nil)
	gd := runSystem(t, GraphDynsSPM, g, k, nil)
	if gi.ApplyVisits <= gd.ApplyVisits {
		t.Errorf("Graphicionado apply visits %d not above GraphDyns(SPM) %d",
			gi.ApplyVisits, gd.ApplyVisits)
	}
}

func TestPrefetchDepthMatters(t *testing.T) {
	g := testGraph()
	k := algorithms.PageRank{}
	fast := runSystem(t, Piccolo, g, k, func(c *Config) { c.MaxIters = 2 })
	slow := runSystem(t, Piccolo, g, k, func(c *Config) { c.MaxIters = 2; c.StreamDepth = 1 })
	if slow.Cycles <= fast.Cycles {
		t.Errorf("no-prefetch run (%d) not slower than prefetch (%d)", slow.Cycles, fast.Cycles)
	}
}

func TestEdgeCentricMode(t *testing.T) {
	g := testGraph()
	k := algorithms.PageRank{}
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, 2)
	ec := runSystem(t, Piccolo, g, k, func(c *Config) { c.MaxIters = 2; c.EdgeCentric = true })
	for v := range ref.Prop {
		if ec.Prop[v] != ref.Prop[v] {
			t.Fatalf("edge-centric prop[%d] differs", v)
		}
	}
	vc := runSystem(t, Piccolo, g, k, func(c *Config) { c.MaxIters = 2 })
	if ec.TopoBytes <= vc.TopoBytes {
		t.Errorf("edge-centric topology bytes %d not above vertex-centric %d", ec.TopoBytes, vc.TopoBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	q := &sim.Queue{}
	mem := dram.MustNew(dram.DDR4(16), q)
	// A fine-grained cache on the conventional path must be rejected.
	_, err := NewEngine(Config{System: GraphDynsCache, CacheDesign: "8b-line", OnChipBytes: 4 << 10}, testGraph(), algorithms.BFS{}, mem, q)
	if err == nil {
		t.Error("fine-grained cache accepted on conventional path")
	}
	// A 64B cache on the Piccolo path must be rejected.
	_, err = NewEngine(Config{System: Piccolo, CacheDesign: "conventional", OnChipBytes: 4 << 10}, testGraph(), algorithms.BFS{}, mem, q)
	if err == nil {
		t.Error("conventional cache accepted on Piccolo path")
	}
	// Unknown cache design.
	_, err = NewEngine(Config{System: Piccolo, CacheDesign: "nope", OnChipBytes: 4 << 10}, testGraph(), algorithms.BFS{}, mem, q)
	if err == nil {
		t.Error("unknown cache design accepted")
	}
}

func TestSystemStringAndPredicates(t *testing.T) {
	for _, s := range Systems() {
		if s.String() == "" || s.String() == "unknown" {
			t.Errorf("system %d has bad name", s)
		}
	}
	if System(99).String() != "unknown" {
		t.Error("out-of-range system name")
	}
	if !Piccolo.FineGrained() || !NMP.FineGrained() || GraphDynsCache.FineGrained() {
		t.Error("FineGrained predicate wrong")
	}
	if !Graphicionado.UsesSPM() || Piccolo.UsesSPM() {
		t.Error("UsesSPM predicate wrong")
	}
}
