// Command piccolo-sim runs a single simulation: one system, one kernel,
// one dataset (built-in proxy or a graphgen file), printing cycles, memory
// statistics and the energy breakdown. The cycles line also carries the
// simulator's own accounting: events fired, how many of them were "far"
// (scheduled sim.Horizon or more cycles ahead, the event queue's slow path),
// and events per second of host time.
//
// Usage:
//
//	piccolo-sim -system piccolo -kernel bfs -dataset SW [-scale small]
//	piccolo-sim -system graphdyns-cache -kernel pr -graph my.graph -tile 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"piccolo"
)

var systems = map[string]piccolo.System{
	"graphicionado":   piccolo.SystemGraphicionado,
	"graphdyns-spm":   piccolo.SystemGraphDynsSPM,
	"graphdyns-cache": piccolo.SystemGraphDynsCache,
	"nmp":             piccolo.SystemNMP,
	"pim":             piccolo.SystemPIM,
	"piccolo":         piccolo.SystemPiccolo,
}

var memories = map[string]func() piccolo.MemoryConfig{
	"ddr4x4":  func() piccolo.MemoryConfig { return piccolo.DDR4(4) },
	"ddr4x8":  func() piccolo.MemoryConfig { return piccolo.DDR4(8) },
	"ddr4x16": func() piccolo.MemoryConfig { return piccolo.DDR4(16) },
	"lpddr4":  piccolo.LPDDR4,
	"gddr5":   piccolo.GDDR5,
	"hbm":     piccolo.HBM,
}

func main() {
	sysName := flag.String("system", "piccolo", "system: "+strings.Join(keys(systems), ", "))
	kernel := flag.String("kernel", "bfs", "kernel: pr, bfs, cc, sssp, sswp")
	dataset := flag.String("dataset", "SW", "built-in dataset proxy (Table II name)")
	graphPath := flag.String("graph", "", "graph file (overrides -dataset)")
	scaleFlag := flag.String("scale", "small", "tiny, small, medium")
	memName := flag.String("mem", "ddr4x16", "memory: "+strings.Join(keys(memories), ", "))
	enhanced := flag.Bool("enhanced", false, "apply the §VIII-B enhanced FIM design")
	tile := flag.Int("tile", 0, "tile scale factor (0 = system default)")
	untiled := flag.Bool("untiled", false, "disable tiling")
	iters := flag.Int("iters", 0, "max iterations (0 = paper default 40)")
	src := flag.Int64("src", -1, "source vertex (-1 = highest degree)")
	noPrefetch := flag.Bool("no-prefetch", false, "disable stream prefetching (Fig. 20b)")
	edgeCentric := flag.Bool("edge-centric", false, "edge-centric engine (§VII-H)")
	cacheDesign := flag.String("cache", "", "cache design override (Fig. 11 names)")
	validate := flag.Bool("validate", true, "verify results against the reference executor")
	flag.Parse()

	sys, ok := systems[*sysName]
	if !ok {
		fail("unknown system %q", *sysName)
	}
	memFn, ok := memories[*memName]
	if !ok {
		fail("unknown memory %q", *memName)
	}
	var sc piccolo.Scale
	switch *scaleFlag {
	case "tiny":
		sc = piccolo.ScaleTiny
	case "small":
		sc = piccolo.ScaleSmall
	case "medium":
		sc = piccolo.ScaleMedium
	default:
		fail("unknown scale %q", *scaleFlag)
	}

	var g *piccolo.Graph
	var err error
	if *graphPath != "" {
		g, err = piccolo.LoadGraph(*graphPath)
	} else {
		g, err = piccolo.Dataset(*dataset, sc)
	}
	if err != nil {
		fail("loading graph: %v", err)
	}

	mem := memFn()
	if *enhanced {
		mem = piccolo.Enhanced(mem)
	}
	streamDepth := 0
	if *noPrefetch {
		streamDepth = 1
	}
	cfg := piccolo.Config{
		System:      sys,
		Kernel:      *kernel,
		Scale:       sc,
		Mem:         mem,
		TileScale:   *tile,
		Untiled:     *untiled,
		MaxIters:    *iters,
		Src:         *src,
		StreamDepth: streamDepth,
		EdgeCentric: *edgeCentric,
		CacheDesign: *cacheDesign,
	}
	start := time.Now()
	res, err := piccolo.Run(cfg, g)
	if err != nil {
		fail("simulation: %v", err)
	}
	host := time.Since(start).Seconds()

	fmt.Printf("graph           %s: V=%d E=%d (avg deg %.1f)\n", g.Name, g.V, g.E(), g.AvgDegree())
	fmt.Printf("system          %s on %s (on-chip %dB, tile width %d)\n", sys, mem.Name, res.OnChipBytes, res.TileWidth)
	fmt.Printf("cycles          %d (%d iterations, %d edges processed; %d events, %d far, %.2f M events per host second)\n",
		res.Cycles, res.Iterations, res.EdgesProcessed, res.Events, res.FarEvents, float64(res.Events)/host/1e6)
	fmt.Printf("bus txns        %d read / %d write (%.2f GB/s off-chip, %.2f GB/s internal)\n",
		res.Mem.ReadTxns, res.Mem.WriteTxns, res.OffChipGBps, res.InternalGBps)
	fmt.Printf("DRAM commands   ACT=%d RD=%d WR=%d gathers=%d scatters=%d pim-updates=%d\n",
		res.Mem.NACT, res.Mem.NRD, res.Mem.NWR, res.Mem.NGather, res.Mem.NScatter, res.Mem.NPIMUpdate)
	if res.Cache.Accesses > 0 {
		fmt.Printf("cache           %.1f%% hits over %d accesses (useful bytes %.1f%%)\n",
			100*res.Cache.HitRate(), res.Cache.Accesses, 100*res.Cache.UsefulFraction())
	}
	e := res.Energy
	fmt.Printf("energy (nJ)     acc=%.0f cache=%.0f dram-rd=%.0f dram-wr=%.0f dram-io=%.0f other=%.0f total=%.0f\n",
		e.Accelerator, e.Cache, e.DRAMRead, e.DRAMWrite, e.DRAMIO, e.Other, e.Total())

	if *validate {
		if err := piccolo.Validate(cfg, g, res); err != nil {
			fail("validation: %v", err)
		}
		fmt.Println("validation      OK (bit-identical to the reference executor)")
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
