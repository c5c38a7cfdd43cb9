package algorithms

import "math"

// RepairStrategy classifies how a kernel's converged results can be kept
// current while edges stream in (DESIGN.md §10, §15). The stream layer
// consumes this instead of switching on kernel names: it decides per query
// whether an incremental path is legal, never what the kernel "is".
type RepairStrategy int

const (
	// RepairFullRecompute declares no incremental path: after an update the
	// only exact result is a fresh run on the post-update graph. This is the
	// safe default, and the honest declaration for non-monotone kernels whose
	// fixed point is not determined by a bound (label propagation).
	RepairFullRecompute RepairStrategy = iota
	// RepairMonotoneWorklist declares KickStarter-style monotone repair:
	// the kernel's Reduce/Apply fold is an idempotent improvement with a
	// unique fixed point above any valid starting state, so re-activating
	// only the vertices whose fold inputs changed converges to exactly the
	// from-scratch bits (bfs, cc, sssp, sswp).
	RepairMonotoneWorklist
	// RepairResidual declares delta-PageRank-style residual propagation:
	// an (estimate, residual) pair tracks the kernel's linear system and
	// updates adjust residuals in O(deg) per touched source. The residual
	// path is exact for the linear system but approximate against the
	// reference's truncated iteration, so exact queries still recompute in
	// full (pr, ppr).
	RepairResidual
	// RepairSupportGrowth declares insertion-only support-count repair for
	// peeling kernels (kcore). The contract the stream layer relies on, and
	// the law test checks: the property is threshold<<32 | member bit;
	// Process contributes the source's member bit; Reduce sums; Apply clears
	// the bit when the sum falls short of the threshold and does nothing
	// else. The converged member set is then the greatest set whose members
	// each keep at least threshold in-edges from members. Inserting edges
	// only raises in-edge counts, so the old set stays self-supporting and
	// membership only grows; and the greatest such set is unique, so the
	// properties are determined by the member set alone — a repair that
	// finds the vertices joining it reproduces the from-scratch bits.
	RepairSupportGrowth
)

// String returns the wire spelling used by /healthz and /stats.
func (r RepairStrategy) String() string {
	switch r {
	case RepairMonotoneWorklist:
		return "monotone-worklist"
	case RepairResidual:
		return "residual"
	case RepairSupportGrowth:
		return "support-growth"
	}
	return "full-recompute"
}

// SourceRole says what a kernel's Init does with its src argument, so
// callers can resolve and canonicalize query sources without knowing the
// kernel.
type SourceRole int

const (
	// SourceIgnored: Init pays no attention to src (pr, cc, lp). Queries
	// canonicalize every src spelling onto one cache entry.
	SourceIgnored SourceRole = iota
	// SourceVertex: src is the traversal source vertex; negative or
	// out-of-range spellings select the highest-out-degree vertex (bfs,
	// sssp, sswp, ppr).
	SourceVertex
	// SourceParam: src is a numeric kernel parameter, not a vertex id —
	// k-core's k rides here. Any non-negative value is legal (it is not
	// bounded by the vertex count); negative selects the descriptor's
	// DefaultParam.
	SourceParam
)

// String returns the wire spelling used by /healthz and /stats.
func (s SourceRole) String() string {
	switch s {
	case SourceVertex:
		return "vertex"
	case SourceParam:
		return "param"
	}
	return "ignored"
}

// Ranking declares how TopK orders a kernel's converged properties.
// Exactly one of Score and ByLabel must be set.
type Ranking struct {
	// Descending ranks higher scores first (rank, capacity, component
	// size); ascending suits distance-like scores (hops, path length).
	Descending bool
	// Score maps one converged property word to a ranking score; ok=false
	// excludes the vertex from the ranking (unreached, peeled away).
	Score func(prop uint64) (score float64, ok bool)
	// ByLabel treats each property as a group label and ranks labels by
	// member count (cc components, lp communities): the result's Vertex is
	// the label, its Score the group size. Labels must be < V.
	ByLabel bool
}

// Descriptor is a kernel's capability declaration — the only thing the
// engine, stream, runner and serve layers may dispatch on (DESIGN.md §15).
// A kernel registers once (Register) and every layer derives its legal
// paths from these traits; there are no per-kernel name switches outside
// this package.
type Descriptor struct {
	// Name is the registry key and wire name ("pr", "bfs", ...), lowercase.
	Name string
	// Version is the kernel's semantics version. It is folded into result
	// content addresses (runner cache keys), so changing a kernel's output
	// — even bit-subtly — must bump it or stale caches would serve the old
	// semantics under the new name.
	Version int
	// Doc is a one-line human description surfaced by /healthz.
	Doc string
	// Monotone declares the Reduce/Apply fold an idempotent improvement
	// with a unique fixed point above any valid start (Apply(old,
	// Identity()) == old holds, and repair-from-below is exact).
	Monotone bool
	// AllActive declares the PR-style iteration shape: every vertex applies
	// every iteration and stays active while any property moves. False
	// selects the frontier (active-vertex) shape.
	AllActive bool
	// Source is the role of Init's src argument; DefaultParam is the value
	// substituted for a negative src when Source == SourceParam.
	Source       SourceRole
	DefaultParam uint32
	// Repair is the streaming repair strategy the stream layer may use.
	Repair RepairStrategy
	// DefaultMaxIters, when > 0, is the kernel's own iteration cap applied
	// where callers pass no explicit bound — bounded-round kernels (label
	// propagation oscillates on cycles under synchronous update) terminate
	// by cap, not convergence. 0 defers to the caller's default
	// (engine.DefaultMaxIters).
	DefaultMaxIters int
	// Unusable, when HasUnusable, is the property value meaning "this
	// vertex has no information to propagate yet"; monotone repair skips
	// sources holding it (bfs/sssp: MaxUint64 would overflow Process, sswp:
	// zero width contributes the Reduce identity).
	Unusable    uint64
	HasUnusable bool
	// OrderSensitiveReduce marks Reduce non-associative in practice
	// (float64 summation); the conformance suite skips the associativity
	// law for these and the engine's determinism argument is what makes
	// their parallel execution exact.
	OrderSensitiveReduce bool
	// Rank is the TopK ordering declaration.
	Rank Ranking
}

// Capability is the JSON projection of a Descriptor served by /healthz,
// /stats and piccolo.Kernels() — everything a client needs to know what a
// server supports and which query shapes are legal.
type Capability struct {
	Name            string `json:"name"`
	Version         int    `json:"version"`
	Doc             string `json:"doc,omitempty"`
	Monotone        bool   `json:"monotone"`
	AllActive       bool   `json:"all_active"`
	Source          string `json:"source"`
	Repair          string `json:"repair"`
	DefaultMaxIters int    `json:"default_max_iters,omitempty"`
}

// Capability projects the descriptor onto its wire form.
func (d Descriptor) Capability() Capability {
	return Capability{
		Name:            d.Name,
		Version:         d.Version,
		Doc:             d.Doc,
		Monotone:        d.Monotone,
		AllActive:       d.AllActive,
		Source:          d.Source.String(),
		Repair:          d.Repair.String(),
		DefaultMaxIters: d.DefaultMaxIters,
	}
}

// EffectiveMaxIters resolves an iteration cap: an explicit positive
// maxIters wins, then the kernel's own DefaultMaxIters, then the caller's
// fallback (engine.DefaultMaxIters everywhere in this repo). Every layer
// that defaults a cap routes through this so a bounded-round kernel gets
// its own bound consistently — in the runner's cache canonicalization and
// the stream engine alike.
func EffectiveMaxIters(d Descriptor, maxIters, fallback int) int {
	if maxIters > 0 {
		return maxIters
	}
	if d.DefaultMaxIters > 0 {
		return d.DefaultMaxIters
	}
	return fallback
}

// ResolveSource canonicalizes a query's src argument per the descriptor:
// ignored sources collapse to 0, params substitute DefaultParam for
// negative values (and saturate at MaxUint32 — a param is not bounded by
// the vertex count), and vertex sources fall back to the highest-out-degree
// vertex when negative or out of range. highestDeg is consulted only for
// that last case and may be nil (vertex 0 is then used — degenerate
// graphs with no valid source run with nothing active either way).
func ResolveSource(d Descriptor, src int64, v uint32, highestDeg func() uint32) uint32 {
	switch d.Source {
	case SourceIgnored:
		return 0
	case SourceParam:
		if src < 0 {
			return d.DefaultParam
		}
		if src > math.MaxUint32 {
			return math.MaxUint32
		}
		return uint32(src)
	}
	if src >= 0 && src < int64(v) {
		return uint32(src)
	}
	if highestDeg != nil {
		return highestDeg()
	}
	return 0
}
