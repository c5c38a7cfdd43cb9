// Package accel models the graph-processing accelerator of Fig. 1: a
// prefetcher feeding topology and sequential-property streams, PEs with
// SIMD lanes, an updater with a bounded outstanding-update window, and an
// on-chip memory (scratchpad or one of the cache designs) in front of the
// DRAM substrate. One engine implements all six evaluated systems; the
// systems differ only in how the random Vtemp path reaches memory
// (DESIGN.md §3).
package accel

import (
	"fmt"

	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/mshr"
)

// System enumerates the evaluated accelerator organizations (Fig. 10).
type System int

const (
	// Graphicionado [29]: scratchpad with mandatory perfect tiling; the
	// apply phase scans every tile vertex.
	Graphicionado System = iota
	// GraphDynsSPM [97]: scratchpad with perfect tiling, apply touches
	// only updated vertices.
	GraphDynsSPM
	// GraphDynsCache [97]: conventional 64B cache, best tile width by
	// sweep — the paper's primary baseline.
	GraphDynsCache
	// NMP [37]: fine-grained cache + collection MSHR grouped by rank,
	// gathers executed by a buffer chip at rank level.
	NMP
	// PIM [62]: no on-chip Vtemp storage; per-edge updates offloaded to
	// near-bank units.
	PIM
	// Piccolo: Piccolo-cache + collection-extended MSHR grouped by DRAM
	// row, gathers/scatters executed in-bank by Piccolo-FIM.
	Piccolo
)

func (s System) String() string {
	switch s {
	case Graphicionado:
		return "Graphicionado"
	case GraphDynsSPM:
		return "GraphDyns(SPM)"
	case GraphDynsCache:
		return "GraphDyns(Cache)"
	case NMP:
		return "NMP"
	case PIM:
		return "PIM"
	case Piccolo:
		return "Piccolo"
	}
	return "unknown"
}

// Systems lists all six in the paper's presentation order.
func Systems() []System {
	return []System{Graphicionado, GraphDynsSPM, GraphDynsCache, NMP, PIM, Piccolo}
}

// ParseSystem resolves a system by its String() name, case-insensitively,
// also accepting the punctuation-free aliases "graphdyns-spm" and
// "graphdyns-cache" (used by cmd/piccolo-serve job requests).
func ParseSystem(name string) (System, error) {
	canon := func(s string) string {
		var b []byte
		for i := 0; i < len(s); i++ {
			switch c := s[i]; {
			case c >= 'A' && c <= 'Z':
				b = append(b, c+'a'-'A')
			case c == '(' || c == ')' || c == '-' || c == '_' || c == ' ':
				// dropped: "GraphDyns(Cache)" == "graphdyns-cache"
			default:
				b = append(b, c)
			}
		}
		return string(b)
	}
	want := canon(name)
	for _, s := range Systems() {
		if canon(s.String()) == want {
			return s, nil
		}
	}
	return 0, fmt.Errorf("accel: unknown system %q", name)
}

// UsesSPM reports whether the system keeps Vtemp in a scratchpad.
func (s System) UsesSPM() bool { return s == Graphicionado || s == GraphDynsSPM }

// FineGrained reports whether misses are collected into gather/scatter
// operations.
func (s System) FineGrained() bool { return s == NMP || s == Piccolo }

// lanes is the engine's compute width: eight PEs with 8-way SIMD at 1 GHz
// retire 64 edge operations per cycle (§VII-A).
const lanes = 8 * 8

// Config parameterizes one engine run.
type Config struct {
	System System
	// Window bounds outstanding random-access updates (the updater's
	// capacity to tolerate memory latency).
	Window int
	// StreamDepth bounds outstanding prefetch stream fetches; 1 disables
	// prefetching (Fig. 20b).
	StreamDepth int
	// TileWidth is the destination-range width in vertices; 0 disables
	// tiling, except on a scratchpad system (see Defaults).
	TileWidth uint32
	// OnChipBytes is the scratchpad or cache capacity.
	OnChipBytes uint64
	// CacheDesign selects the cache for cache-based systems (Fig. 11);
	// empty selects the system's default (conventional for GraphDynsCache,
	// piccolo for NMP/Piccolo).
	CacheDesign string
	CacheWays   int
	// CollectionEntries sizes each side of the collection-extended MSHR;
	// ConvMSHREntries sizes the conventional MSHR.
	CollectionEntries int
	ConvMSHREntries   int
	// MaxIters caps iterations (§VII-A: up to 40).
	MaxIters int
	// EdgeCentric switches the engine to the edge-centric model of §VII-H:
	// edge-list streaming with cached random source-property reads.
	EdgeCentric bool
}

// Defaults fills unset fields with the paper's parameters and clamps a
// scratchpad system's TileWidth to the tile that fits on chip.
func (c *Config) Defaults() {
	if c.Window == 0 {
		c.Window = 512
	}
	if c.StreamDepth == 0 {
		c.StreamDepth = 64
	}
	if c.OnChipBytes == 0 {
		c.OnChipBytes = 8 << 10
	}
	if c.System.UsesSPM() {
		// Scratchpads require perfect tiling: the tile must fit on chip.
		if perfect := uint32(c.OnChipBytes / 8); c.TileWidth == 0 || c.TileWidth > perfect {
			c.TileWidth = perfect
		}
	}
	if c.CacheWays == 0 {
		c.CacheWays = 8
	}
	if c.CollectionEntries == 0 {
		c.CollectionEntries = 64
	}
	if c.ConvMSHREntries == 0 {
		c.ConvMSHREntries = 256
	}
	if c.MaxIters == 0 {
		c.MaxIters = 40
	}
	if c.CacheDesign == "" {
		if c.System == GraphDynsCache {
			c.CacheDesign = cache.DesignConventional
		} else {
			c.CacheDesign = cache.DesignPiccolo
		}
	}
}

// CheckCacheDesign reports whether design names a cache and, on a system
// that has one, whether the design's fill size suits the system's miss
// path: 64B line fills for GraphDynsCache's conventional MSHR, 8B sectors
// for the collection MSHR of NMP and Piccolo. Scratchpad and PIM systems
// ignore the design.
func CheckCacheDesign(sys System, design string) error {
	ch, err := cache.New(design, 8<<10, 8)
	if err != nil {
		return err
	}
	return sys.checkFill(design, ch.FetchBytes())
}

// checkFill is CheckCacheDesign's rule, applied to a built cache's fill
// size.
func (s System) checkFill(design string, fetchBytes uint64) error {
	switch {
	case s == GraphDynsCache && fetchBytes != 64:
		// A fine-grained design on a conventional memory path would
		// issue 8B reads the DDR bus cannot express.
		return fmt.Errorf("accel: %s requires a 64B-fill cache, got %s", s, design)
	case s.FineGrained() && fetchBytes != 8:
		return fmt.Errorf("accel: %s requires a fine-grained cache, got %s", s, design)
	}
	return nil
}

// buildMemoryPath constructs the cache/MSHR stack for the configured
// system.
func (c *Config) buildMemoryPath(mem *dram.System) (cache.Cache, *mshr.Collection, *mshr.Conventional, error) {
	if c.System.UsesSPM() || c.System == PIM {
		return nil, nil, nil, nil
	}
	ch, err := cache.New(c.CacheDesign, c.OnChipBytes, c.CacheWays)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := c.System.checkFill(c.CacheDesign, ch.FetchBytes()); err != nil {
		return nil, nil, nil, err
	}
	if c.System == GraphDynsCache {
		return ch, nil, mshr.NewConventional(c.ConvMSHREntries), nil
	}
	return ch, mshr.NewCollection(c.CollectionEntries, mem.ItemsPerOp()), nil, nil
}
