package graph

import "fmt"

// Scale selects the size of the synthetic dataset proxies. The paper's real
// datasets (Table II) span 21M–268M vertices; those are multi-GB downloads
// that are unavailable offline and would need hours per simulated run, so the
// reproduction generates degree- and locality-matched proxies (see DESIGN.md
// §1). All on-chip capacities used by the experiments are scaled by the same
// factor, preserving the cache-capacity : working-set regime.
type Scale int

const (
	// ScaleTiny is for unit tests: ~1-4K vertices.
	ScaleTiny Scale = iota
	// ScaleSmall is the default experiment scale: ~8-32K vertices.
	ScaleSmall
	// ScaleMedium is for cmd/piccolo-bench -scale medium: ~32-128K vertices.
	ScaleMedium
)

// String names the scale as accepted by ParseScale and the command-line
// -scale flags.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleMedium:
		return "medium"
	default:
		return "small"
	}
}

// ParseScale resolves a scale name; "" selects ScaleSmall, the default
// experiment scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	}
	return 0, fmt.Errorf("graph: unknown scale %q (want tiny, small or medium)", name)
}

// shift returns the power-of-two downscaling of the proxy relative to
// ScaleSmall.
func (s Scale) shift() int {
	switch s {
	case ScaleTiny:
		return 3
	case ScaleMedium:
		return -2
	default:
		return 0
	}
}

// scaleSize applies the scale's power-of-two factor to a vertex count.
func scaleSize(base uint32, sc Scale) uint32 {
	if sh := sc.shift(); sh >= 0 {
		return base >> sh
	}
	return base << uint(-sc.shift())
}

// CapacityFactor returns the multiplier applied to on-chip capacities (cache
// and scratchpad bytes, MSHR entries) so that the capacity : working-set
// ratio tracks the dataset scale.
func (s Scale) CapacityFactor() float64 {
	if sh := s.shift(); sh >= 0 {
		return 1 / float64(uint32(1)<<sh)
	}
	return float64(uint32(1) << uint(-s.shift()))
}

// Dataset describes one of the paper's Table II workloads and how its proxy
// is generated.
type Dataset struct {
	Name  string // paper abbreviation: UU, SW, TW, FS, PP, WS26, ...
	Brief string // Table II description
	// PaperV and PaperE document the original sizes (millions).
	PaperV, PaperE float64
	build          func(sc Scale) *CSR
}

// Build generates the proxy graph at the requested scale.
func (d Dataset) Build(sc Scale) *CSR {
	g := d.build(sc)
	g.Name = d.Name
	return g
}

func kronScaled(name string, baseScale, edgeFactor int, seed int64, sc Scale) *CSR {
	s := baseScale - sc.shift()
	if s < 8 {
		s = 8
	}
	return Kronecker(name, s, edgeFactor, seed)
}

// RealWorld returns the proxies for the five real-world datasets of Table II
// in the paper's order: UU, TW, SW, FS, PP.
func RealWorld() []Dataset {
	return []Dataset{
		{
			Name: "UU", Brief: "Facebook friendship (uci-uni): avg degree 3, very sparse",
			PaperV: 58, PaperE: 92,
			build: func(sc Scale) *CSR {
				g := Uniform("UU", scaleSize(32768, sc), 3, 11)
				// Friendship IDs carry no locality: shuffle labels.
				rg, err := g.Relabel(ShufflePerm(g.V, 12))
				if err != nil {
					panic(err)
				}
				return rg
			},
		},
		{
			Name: "TW", Brief: "Twitter follower: dense clusters, high vertex locality",
			PaperV: 41, PaperE: 1465,
			build: func(sc Scale) *CSR {
				g := kronScaled("TW", 14, 36, 21, sc)
				// TW "vertices form dense clusters ... high-locality": BFS order.
				rg, err := g.Relabel(BFSOrderPerm(g))
				if err != nil {
					panic(err)
				}
				return rg
			},
		},
		{
			Name: "SW", Brief: "Sina Weibo social: power-law, moderate degree",
			PaperV: 21, PaperE: 261,
			build: func(sc Scale) *CSR {
				return kronScaled("SW", 14, 12, 31, sc)
			},
		},
		{
			Name: "FS", Brief: "Friendster social: large, low vertex locality",
			PaperV: 65, PaperE: 1806,
			build: func(sc Scale) *CSR {
				g := kronScaled("FS", 15, 28, 41, sc)
				rg, err := g.Relabel(ShufflePerm(g.V, 42))
				if err != nil {
					panic(err)
				}
				return rg
			},
		},
		{
			Name: "PP", Brief: "ogbn-papers100M citation graph",
			PaperV: 111, PaperE: 1615,
			build: func(sc Scale) *CSR {
				return kronScaled("PP", 15, 15, 51, sc)
			},
		},
	}
}

// Synthetic returns the proxies for the paper's synthetic datasets
// (Fig. 18): Watts–Strogatz WS26/WS27 and Kronecker KN25..KN28. The relative
// sizes double exactly as in the paper; absolute sizes are scaled.
func Synthetic() []Dataset {
	ws := func(name string, base uint32) Dataset {
		return Dataset{
			Name: name, Brief: "Watts-Strogatz small-world (k=5, beta=0.1)",
			PaperV: float64(base) / 1e6, PaperE: float64(base) * 5 / 1e6,
			build: func(sc Scale) *CSR {
				return WattsStrogatz(name, scaleSize(base>>26<<14, sc), 5, 0.1, int64(base))
			},
		}
	}
	kn := func(name string, paperScale int) Dataset {
		return Dataset{
			Name: name, Brief: fmt.Sprintf("Kronecker scale %d (edge factor 10)", paperScale),
			PaperV: float64(uint64(1) << (paperScale - 1) / (1 << 19)), PaperE: 0,
			build: func(sc Scale) *CSR {
				// KN25..KN28 map to proxy scales 12..15 at ScaleSmall.
				return kronScaled(name, paperScale-13, 10, int64(paperScale), sc)
			},
		}
	}
	return []Dataset{
		ws("WS26", 1<<26),
		ws("WS27", 1<<27),
		kn("KN25", 25),
		kn("KN26", 26),
		kn("KN27", 27),
		kn("KN28", 28),
	}
}

// datasets is every proxy ByName resolves, built once: RealWorld and
// Synthetic assemble closures and formatted names on each call, and ByName
// sits on the per-request path of piccolo-serve (Runner.KnownDataset).
var datasets = append(RealWorld(), Synthetic()...)

// lookup finds name among the dataset proxies without allocating.
func lookup(name string) (Dataset, bool) {
	for i := range datasets {
		if datasets[i].Name == name {
			return datasets[i], true
		}
	}
	return Dataset{}, false
}

// ByName finds a dataset proxy among RealWorld and Synthetic.
func ByName(name string) (Dataset, error) {
	d, ok := lookup(name)
	if !ok {
		return Dataset{}, fmt.Errorf("graph: unknown dataset %q", name)
	}
	return d, nil
}

// HighestDegreeVertex returns the vertex with the largest out-degree; the
// experiments use it as the BFS/SSSP/SSWP source so traversals reach a large
// fraction of the graph, as they do on the paper's real datasets. For a
// 0-vertex graph there is no such vertex and ok is false — callers must not
// feed the returned id into a kernel in that case (it used to silently
// return vertex 0, an out-of-range source that panicked downstream).
func HighestDegreeVertex(g *CSR) (v uint32, ok bool) {
	return HighestDegreeVertexStore(AsStore(g))
}
