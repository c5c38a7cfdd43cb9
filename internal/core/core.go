// Package core assembles complete simulated systems — accelerator engine,
// on-chip memory, miss handling, DRAM substrate and energy accounting —
// from a single configuration, applying the paper's defaults (§VII-A):
// eight PEs with 8-way SIMD at 1 GHz, four-rank DDR4-2400 x16, Piccolo with
// a 4MB-equivalent cache and the baselines with 4.5MB-equivalent on-chip
// memory, tile widths per system, capacities scaled with the dataset proxy
// scale (DESIGN.md §1).
package core

import (
	"fmt"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/dram"
	"piccolo/internal/energy"
	"piccolo/internal/graph"
	"piccolo/internal/sim"
)

// Config selects a system, a kernel and the knobs the paper sweeps.
// Zero values mean "paper default".
type Config struct {
	System accel.System
	Mem    dram.Config // zero: DDR4-2400 x16, 1 channel × 4 ranks
	Kernel string      // pr, bfs, cc, sssp, sswp
	Scale  graph.Scale // capacities follow the dataset scale

	// TileScale multiplies the perfect-tiling width (Fig. 17's ×n). 0
	// picks the system default: perfect for scratchpads, ×2 for the
	// conventional cache baseline, ×8 for Piccolo/NMP, untiled for PIM.
	TileScale int
	// Untiled forces a single tile regardless of system.
	Untiled bool

	CacheDesign string // Fig. 11 sweep; "" = system default
	MaxIters    int
	StreamDepth int  // 1 disables prefetching (Fig. 20b)
	EdgeCentric bool // §VII-H
	Window      int

	// Src follows the kernel descriptor's source role: a source vertex
	// for the traversal kernels (-1 selects the highest-degree vertex,
	// the default), a kernel parameter for param kernels, ignored
	// otherwise.
	Src int64
}

// Result bundles the engine result with derived metrics.
type Result struct {
	accel.Result
	Energy energy.Breakdown
	// OffChipGBps and InternalGBps are average bandwidths (Fig. 13).
	OffChipGBps  float64
	InternalGBps float64
	OnChipBytes  uint64
	TileWidth    uint32
}

// perfectWidth is the tile width (vertices) that fits the on-chip memory.
func perfectWidth(onChip uint64) uint32 { return uint32(onChip / 8) }

// defaultTileScale returns the per-system default tile scaling factor.
func defaultTileScale(sys accel.System) int {
	switch sys {
	case accel.Graphicionado, accel.GraphDynsSPM:
		return 1
	case accel.GraphDynsCache:
		return 2
	case accel.NMP, accel.Piccolo:
		return 8
	default: // PIM: no on-chip Vtemp, tiling only adds repetition
		return 0
	}
}

// onChipBytes returns the scaled on-chip capacity: Piccolo-class systems
// get the 4MB-equivalent, baselines the 4.5MB-equivalent (§VII-A), both
// scaled to the dataset proxy scale.
func onChipBytes(sys accel.System, sc graph.Scale) uint64 {
	out := uint64(float64(4<<10) * sc.CapacityFactor()) // 4MB-equivalent
	if out < 1<<10 {
		out = 1 << 10
	}
	if !sys.FineGrained() {
		out += out / 8 // the baselines' 4.5MB-equivalent (their ninth way)
	}
	return out
}

// Run simulates cfg on g and returns results plus derived metrics. A g that
// fails graph.CSR.Validate is refused: the engine walks each tile's edges as
// runs of destination-sorted rows.
func Run(cfg Config, g *graph.CSR) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: refusing to simulate invalid graph: %w", err)
	}
	k, err := algorithms.New(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	memCfg := cfg.Mem
	if memCfg.Name == "" {
		memCfg = dram.DDR4(16)
	}
	onChipPre := onChipBytes(cfg.System, cfg.Scale)
	memCfg.RowBytes = scaledRowBytes(memCfg.RowBytes, onChipPre)
	q := &sim.Queue{}
	mem, err := dram.New(memCfg, q)
	if err != nil {
		return nil, err
	}

	onChip := onChipPre
	scale := cfg.TileScale
	if scale == 0 {
		scale = defaultTileScale(cfg.System)
	}
	var width uint32
	if !cfg.Untiled && scale > 0 {
		width = perfectWidth(onChip) * uint32(scale)
	}
	// The collection-extended MSHR must track roughly the DRAM rows a
	// default (×8) tile spans, as the paper's 4K entries do against its
	// ~4600-row tiles; the floor covers the channel×rank×bank fanout so
	// direct-mapped indexing stays collision free within a tile.
	collEntries := int(64 * cfg.Scale.CapacityFactor())
	if minE := memCfg.Channels * memCfg.Ranks * memCfg.Banks; collEntries < minE {
		collEntries = minE
	}
	if collEntries < 64 {
		collEntries = 64
	}

	acfg := accel.Config{
		System:            cfg.System,
		TileWidth:         width,
		OnChipBytes:       onChip,
		CacheWays:         cacheWays(cfg.System),
		CacheDesign:       cfg.CacheDesign,
		MaxIters:          cfg.MaxIters,
		StreamDepth:       cfg.StreamDepth,
		Window:            cfg.Window,
		EdgeCentric:       cfg.EdgeCentric,
		CollectionEntries: collEntries,
	}
	acfg.Defaults() // settles the tile width the engine walks
	eng, err := accel.NewEngine(acfg, g, k, mem, q)
	if err != nil {
		return nil, err
	}
	src := algorithms.ResolveSource(k.Descriptor(), cfg.Src, g.V, func() uint32 {
		s, _ := graph.HighestDegreeVertex(g)
		return s
	})
	ares, err := eng.Run(src)
	if err != nil {
		return nil, err
	}

	res := &Result{Result: *ares, OnChipBytes: onChip, TileWidth: acfg.TileWidth}
	res.Energy = energy.Estimate(energy.Default(), energy.Inputs{
		Cycles:        ares.Cycles,
		Edges:         ares.EdgesProcessed,
		CacheAccesses: ares.Cache.Accesses,
		CacheName:     cacheEnergyName(cfg.System, eng),
		MSHROps:       ares.Coll.Allocs + ares.Coll.Merges,
		Mem:           ares.Mem,
		Ranks:         memCfg.Channels * memCfg.Ranks,
	})
	if ares.Cycles > 0 {
		res.OffChipGBps = float64(ares.Mem.TotalBusBytes()) / float64(ares.Cycles)
		res.InternalGBps = float64(ares.Mem.InternalBytes) / float64(ares.Cycles)
	}
	return res, nil
}

// scaledRowBytes shrinks the DRAM row size in proportion to the scaled
// on-chip capacity so that a tile spans as many DRAM rows as it does at
// paper scale (a ×8 tile over ~60+ rows). Without this, a scaled tile fits
// a handful of rows and gathers serialize on a few banks — a scaling
// artifact, not a property of the design. The fim emulator (the validation
// platform) keeps the real 8KB rows.
func scaledRowBytes(rowBytes, onChip uint64) uint64 {
	target := onChip * 8 / 64 // ×8 default tile over 64 rows
	// Preserve the configured row size's relation to DDR4's 8KB (LPDDR,
	// GDDR and HBM have proportionally smaller rows).
	target = target * rowBytes / (8 << 10)
	// Round down to a power of two.
	out := uint64(1)
	for out*2 <= target {
		out *= 2
	}
	if out < 256 {
		out = 256
	}
	if out > rowBytes {
		out = rowBytes
	}
	return out
}

// cacheWays returns the associativity: the conventional baseline's 9/8
// capacity comes as a ninth way (4.5MB in 9 ways ↔ Piccolo's 4MB in 8,
// keeping set counts powers of two at every scale).
func cacheWays(sys accel.System) int {
	if sys == accel.GraphDynsCache {
		return 9
	}
	return 8
}

// cacheEnergyName is the energy table key of the engine's on-chip memory.
func cacheEnergyName(sys accel.System, eng *accel.Engine) string {
	if sys.UsesSPM() {
		return "spm"
	}
	return eng.CacheName()
}

// Validate re-runs the kernel with the reference executor and verifies the
// simulated properties bit-for-bit (the DESIGN.md §5 invariant) — used by
// integration tests and the examples.
func Validate(cfg Config, g *graph.CSR, res *Result) error {
	k, err := algorithms.New(cfg.Kernel)
	if err != nil {
		return err
	}
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 40
	}
	src := algorithms.ResolveSource(k.Descriptor(), cfg.Src, g.V, func() uint32 {
		s, _ := graph.HighestDegreeVertex(g)
		return s
	})
	ref := algorithms.RunReference(g, k, src, maxIters)
	if ref.Iterations != res.Iterations {
		return fmt.Errorf("core: %d iterations, reference %d", res.Iterations, ref.Iterations)
	}
	for v := range ref.Prop {
		if ref.Prop[v] != res.Prop[v] {
			return fmt.Errorf("core: property of vertex %d = %#x, reference %#x", v, res.Prop[v], ref.Prop[v])
		}
	}
	return nil
}
