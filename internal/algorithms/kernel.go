// Package algorithms defines the vertex-centric-model kernels (Process /
// Reduce / Apply of Algorithm 1) for the graph algorithms the system
// serves — the paper's five (PageRank, BFS, Connected Components,
// Single-Source Shortest Path, Single-Source Widest Path) plus the
// registry-added extras (label propagation, k-core, personalized
// PageRank) — a capability registry through which every other layer
// consumes them, and a simulation-free reference executor used to
// validate every executor's functional output.
package algorithms

import "math"

// Kernel is one vertex-centric graph algorithm. Vertex properties are 8B
// words (uint64 bit patterns; the rank kernels store float64 bits),
// matching the paper's property granularity. Everything a consumer may
// branch on lives in the Descriptor — the methods below define only the
// fold itself.
type Kernel interface {
	// Name is the human display name ("PR", "BFS", ...); dispatch uses
	// Descriptor().Name, never this.
	Name() string
	// Descriptor declares the kernel's capabilities (DESIGN.md §15). It
	// must be constant for a given kernel value.
	Descriptor() Descriptor
	// Init returns the initial property array and active-vertex flags for a
	// v-vertex graph. src's meaning follows Descriptor().Source: ignored, a
	// source vertex (a src at or beyond v — only possible for degenerate
	// graphs with no valid source at all — yields a run with nothing
	// active), or a kernel parameter.
	Init(v uint32, src uint32) (prop []uint64, active []bool)
	// Process computes an edge's contribution from the source vertex
	// property (Algorithm 1 line 4).
	Process(weight uint8, srcProp uint64, srcDeg uint32) uint64
	// Reduce combines two contributions (line 5); it must be commutative
	// and associative with Identity as neutral element (associative only up
	// to float rounding when Descriptor().OrderSensitiveReduce).
	Reduce(a, b uint64) uint64
	// Identity is Reduce's neutral element, the per-iteration Vtemp reset
	// value.
	Identity() uint64
	// Apply merges the reduced contribution into the old property
	// (line 7). For monotone kernels Apply(old, Identity()) == old.
	Apply(old, temp uint64) uint64
	// Converged reports whether old→new counts as "unchanged" for
	// activation purposes (lines 8-10). Exact equality for the discrete
	// kernels; an epsilon for the rank kernels.
	Converged(old, new uint64) bool
}

func init() {
	// The paper's five kernels, in its presentation order. Extra kernels
	// register from their own kernel_*.go files, whose init functions run
	// after this one (Go initializes files in sorted filename order and
	// "kernel.go" sorts before every "kernel_*.go").
	Register(PageRank{})
	Register(BFS{})
	Register(CC{})
	Register(SSSP{})
	Register(SSWP{})
}

const (
	inf     = math.MaxUint64
	damping = 0.85
	prEps   = 1e-7
)

// PageRank traverses every edge each iteration; Vprop[u]/outdeg(u) flows to
// each neighbor, reduced by summation, applied with damping.
type PageRank struct{}

func (PageRank) Name() string { return "PR" }

func (PageRank) Descriptor() Descriptor {
	return Descriptor{
		Name:                 "pr",
		Version:              1,
		Doc:                  "PageRank (sum-to-N formulation, damping 0.85, power iteration)",
		AllActive:            true,
		Source:               SourceIgnored,
		Repair:               RepairResidual,
		OrderSensitiveReduce: true,
		Rank: Ranking{Descending: true, Score: func(p uint64) (float64, bool) {
			return math.Float64frombits(p), true
		}},
	}
}

// Init assigns every vertex rank 1 (the sum-to-N PageRank formulation, so
// Apply's teleport term needs no global vertex count).
func (PageRank) Init(v uint32, _ uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	one := math.Float64bits(1)
	for i := range prop {
		prop[i] = one
		active[i] = true
	}
	return prop, active
}

func (PageRank) Process(_ uint8, srcProp uint64, srcDeg uint32) uint64 {
	if srcDeg == 0 {
		return 0
	}
	return math.Float64bits(math.Float64frombits(srcProp) / float64(srcDeg))
}

func (PageRank) Reduce(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

func (PageRank) Identity() uint64 { return 0 }

func (PageRank) Apply(old, temp uint64) uint64 {
	_ = old
	return math.Float64bits((1 - damping) + damping*math.Float64frombits(temp))
}

func (PageRank) Converged(old, new uint64) bool {
	return math.Abs(math.Float64frombits(new)-math.Float64frombits(old)) <= prEps
}

// BFS computes hop counts from the source; contributions are level+1,
// reduced by min.
type BFS struct{}

func (BFS) Name() string { return "BFS" }

func (BFS) Descriptor() Descriptor {
	return Descriptor{
		Name:     "bfs",
		Version:  1,
		Doc:      "breadth-first hop counts from one source",
		Monotone: true,
		Source:   SourceVertex,
		Repair:   RepairMonotoneWorklist,
		Unusable: inf, HasUnusable: true,
		Rank: Ranking{Score: func(p uint64) (float64, bool) {
			if p == inf {
				return 0, false
			}
			return float64(p), true
		}},
	}
}

func (BFS) Init(v uint32, src uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	for i := range prop {
		prop[i] = inf
	}
	if src < v {
		prop[src] = 0
		active[src] = true
	}
	return prop, active
}

func (BFS) Process(_ uint8, srcProp uint64, _ uint32) uint64 { return srcProp + 1 }
func (BFS) Reduce(a, b uint64) uint64                        { return minU(a, b) }
func (BFS) Identity() uint64                                 { return inf }
func (BFS) Apply(old, temp uint64) uint64                    { return minU(old, temp) }
func (BFS) Converged(old, new uint64) bool                   { return old == new }

// CC propagates minimum vertex labels until components stabilize.
type CC struct{}

func (CC) Name() string { return "CC" }

func (CC) Descriptor() Descriptor {
	return Descriptor{
		Name:     "cc",
		Version:  1,
		Doc:      "connected components by minimum-label propagation",
		Monotone: true,
		Source:   SourceIgnored,
		Repair:   RepairMonotoneWorklist,
		Rank:     Ranking{Descending: true, ByLabel: true},
	}
}

func (CC) Init(v uint32, _ uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	for i := range prop {
		prop[i] = uint64(i)
		active[i] = true
	}
	return prop, active
}

func (CC) Process(_ uint8, srcProp uint64, _ uint32) uint64 { return srcProp }
func (CC) Reduce(a, b uint64) uint64                        { return minU(a, b) }
func (CC) Identity() uint64                                 { return inf }
func (CC) Apply(old, temp uint64) uint64                    { return minU(old, temp) }
func (CC) Converged(old, new uint64) bool                   { return old == new }

// SSSP computes shortest distances with the edge weights (min-plus).
type SSSP struct{}

func (SSSP) Name() string { return "SSSP" }

func (SSSP) Descriptor() Descriptor {
	return Descriptor{
		Name:     "sssp",
		Version:  1,
		Doc:      "single-source shortest path over uint8 edge weights",
		Monotone: true,
		Source:   SourceVertex,
		Repair:   RepairMonotoneWorklist,
		Unusable: inf, HasUnusable: true,
		Rank: Ranking{Score: func(p uint64) (float64, bool) {
			if p == inf {
				return 0, false
			}
			return float64(p), true
		}},
	}
}

func (SSSP) Init(v uint32, src uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	for i := range prop {
		prop[i] = inf
	}
	if src < v {
		prop[src] = 0
		active[src] = true
	}
	return prop, active
}

func (SSSP) Process(weight uint8, srcProp uint64, _ uint32) uint64 {
	return srcProp + uint64(weight)
}
func (SSSP) Reduce(a, b uint64) uint64      { return minU(a, b) }
func (SSSP) Identity() uint64               { return inf }
func (SSSP) Apply(old, temp uint64) uint64  { return minU(old, temp) }
func (SSSP) Converged(old, new uint64) bool { return old == new }

// SSWP computes widest-path capacities: the bottleneck (min) along a path,
// maximized over paths.
type SSWP struct{}

func (SSWP) Name() string { return "SSWP" }

func (SSWP) Descriptor() Descriptor {
	return Descriptor{
		Name:     "sswp",
		Version:  1,
		Doc:      "single-source widest path (bottleneck capacity)",
		Monotone: true,
		Source:   SourceVertex,
		Repair:   RepairMonotoneWorklist,
		Unusable: 0, HasUnusable: true,
		Rank: Ranking{Descending: true, Score: func(p uint64) (float64, bool) {
			if p == 0 {
				return 0, false
			}
			return float64(p), true
		}},
	}
}

func (SSWP) Init(v uint32, src uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	if src < v {
		prop[src] = inf
		active[src] = true
	}
	return prop, active
}

func (SSWP) Process(weight uint8, srcProp uint64, _ uint32) uint64 {
	return minU(srcProp, uint64(weight))
}
func (SSWP) Reduce(a, b uint64) uint64      { return maxU(a, b) }
func (SSWP) Identity() uint64               { return 0 }
func (SSWP) Apply(old, temp uint64) uint64  { return maxU(old, temp) }
func (SSWP) Converged(old, new uint64) bool { return old == new }

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
