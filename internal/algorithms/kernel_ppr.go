package algorithms

import "math"

// pprSrcFlag marks the personalization source inside the float64 property
// word. Ranks are non-negative, so the sign bit is free: Init sets it on
// the source, Process strips it before dividing, and Apply re-ORs it after
// adding the teleport term — letting Apply (which sees only (old, temp))
// know which single vertex receives teleport mass without any side state.
const pprSrcFlag = uint64(1) << 63

// pprEps is the per-vertex convergence epsilon. Personalized mass is 1
// total (vs. N for the sum-to-N global PageRank), so the epsilon is much
// tighter than PageRank's prEps.
const pprEps = 1e-10

// PPR is personalized PageRank by power iteration: random walks restart at
// one source vertex with probability 1-damping, so ranks measure proximity
// to the source — the serving-shaped "top-k most relevant to X" query.
// Total mass is 1; every vertex unreachable from the source stays at
// exactly 0 and is excluded from top-k. Like global PageRank it declares
// full recompute: the truncated power iteration's bits are not reachable
// incrementally.
type PPR struct{}

func init() { Register(PPR{}) }

func (PPR) Name() string { return "PPR" }

func (PPR) Descriptor() Descriptor {
	return Descriptor{
		Name:                 "ppr",
		Version:              1,
		Doc:                  "personalized PageRank from one source (teleport to src, damping 0.85)",
		AllActive:            true,
		Source:               SourceVertex,
		Repair:               RepairFullRecompute,
		OrderSensitiveReduce: true,
		Rank: Ranking{Descending: true, Score: func(p uint64) (float64, bool) {
			r := math.Float64frombits(p &^ pprSrcFlag)
			if r == 0 {
				return 0, false
			}
			return r, true
		}},
	}
}

func (PPR) Init(v uint32, src uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	for i := range active {
		active[i] = true
	}
	if src < v {
		prop[src] = math.Float64bits(1) | pprSrcFlag
	}
	return prop, active
}

func (PPR) Process(_ uint8, srcProp uint64, srcDeg uint32) uint64 {
	if srcDeg == 0 {
		return 0
	}
	return math.Float64bits(math.Float64frombits(srcProp&^pprSrcFlag) / float64(srcDeg))
}

func (PPR) Reduce(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

func (PPR) Identity() uint64 { return 0 }

func (PPR) Apply(old, temp uint64) uint64 {
	rank := damping * math.Float64frombits(temp)
	if old&pprSrcFlag != 0 {
		return math.Float64bits(rank+(1-damping)) | pprSrcFlag
	}
	return math.Float64bits(rank)
}

func (PPR) Converged(old, new uint64) bool {
	return math.Abs(math.Float64frombits(new&^pprSrcFlag)-math.Float64frombits(old&^pprSrcFlag)) <= pprEps
}
