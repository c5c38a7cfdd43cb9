package algorithms

// LabelProp is frontier-driven synchronous label propagation: every vertex
// starts with its own id as label, and each round a changed vertex offers
// its label to its out-neighbors, which adopt the minimum label offered.
// Unlike CC's monotone min-fold, adoption REPLACES the old label — a
// vertex's label can rise again when the neighbors that lowered it move
// on — so the dynamics are non-monotone and, under synchronous update, can
// oscillate forever on cycles (a 2-cycle swaps labels every round). The
// descriptor therefore declares a bounded round cap (DefaultMaxIters)
// instead of convergence, and full-recompute stream repair: with no
// monotone fixed point there is nothing a worklist could repair toward.
// Both executors run the same deterministic synchronous schedule, so the
// capped result is still bit-identical between reference and engine.
type LabelProp struct{}

// lpRounds is the default round cap (Descriptor().DefaultMaxIters). Label
// propagation stabilizes in a few sweeps on most graphs; 32 bounds the
// oscillating remainder.
const lpRounds = 32

func init() { Register(LabelProp{}) }

func (LabelProp) Name() string { return "LP" }

func (LabelProp) Descriptor() Descriptor {
	return Descriptor{
		Name:            "lp",
		Version:         1,
		Doc:             "synchronous min-label-adoption propagation, bounded rounds",
		Source:          SourceIgnored,
		Repair:          RepairFullRecompute,
		DefaultMaxIters: lpRounds,
		Rank:            Ranking{Descending: true, ByLabel: true},
	}
}

func (LabelProp) Init(v uint32, _ uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	for i := range prop {
		prop[i] = uint64(i)
		active[i] = true
	}
	return prop, active
}

func (LabelProp) Process(_ uint8, srcProp uint64, _ uint32) uint64 { return srcProp }
func (LabelProp) Reduce(a, b uint64) uint64                        { return minU(a, b) }
func (LabelProp) Identity() uint64                                 { return inf }

// Apply adopts the smallest offered label outright; the Identity guard
// only matters on the paths that Apply untouched vertices (the reference's
// AllActive branch is never taken — LabelProp is frontier-shaped — but the
// law tests exercise it).
func (LabelProp) Apply(old, temp uint64) uint64 {
	if temp == inf {
		return old
	}
	return temp
}

func (LabelProp) Converged(old, new uint64) bool { return old == new }
