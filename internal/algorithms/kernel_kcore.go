package algorithms

// KCore computes k-core membership by synchronous peeling on the directed
// graph's in-degrees: every vertex starts alive, each iteration counts the
// alive in-neighbors (self-loops included), and a vertex with fewer than k
// of them dies. Deaths cascade until a fixed point — the surviving set is
// the maximal subgraph where every member keeps in-degree ≥ k, reached in
// at most V+1 iterations (at least one vertex dies per non-final round).
// The parameter k rides the src argument (Descriptor().Source ==
// SourceParam, default 2); sweeping k from 1 upward yields coreness.
//
// The property packs (k<<32 | aliveBit): Process contributes a vertex's
// alive bit, Reduce sums them (counts are bounded by in-degree < 2^32, so
// the sum never carries into the k field), and Apply clears the alive bit
// when the count falls short. Under edge insertions in-degrees only rise,
// so the surviving set stays self-supporting and membership only grows — a
// new edge can bring peeled vertices back, never peel a member — and the
// surviving set is the unique greatest one, so the descriptor declares
// support-growth repair: the stream layer finds the vertices that join
// instead of peeling the whole graph again (DESIGN.md §10).
type KCore struct{}

func init() { Register(KCore{}) }

func (KCore) Name() string { return "KCORE" }

func (KCore) Descriptor() Descriptor {
	return Descriptor{
		Name:      "kcore",
		Version:   1,
		Doc:       "k-core membership by synchronous in-degree peeling (src carries k, default 2)",
		AllActive: true,
		Source:    SourceParam, DefaultParam: 2,
		Repair: RepairSupportGrowth,
		Rank: Ranking{Descending: true, Score: func(p uint64) (float64, bool) {
			if p&1 == 1 {
				return 1, true
			}
			return 0, false
		}},
	}
}

func (KCore) Init(v uint32, src uint32) ([]uint64, []bool) {
	prop := make([]uint64, v)
	active := make([]bool, v)
	base := uint64(src)<<32 | 1
	for i := range prop {
		prop[i] = base
		active[i] = true
	}
	return prop, active
}

func (KCore) Process(_ uint8, srcProp uint64, _ uint32) uint64 { return srcProp & 1 }
func (KCore) Reduce(a, b uint64) uint64                        { return a + b }
func (KCore) Identity() uint64                                 { return 0 }

func (KCore) Apply(old, temp uint64) uint64 {
	if old&1 == 1 && temp < old>>32 {
		return old &^ 1
	}
	return old
}

func (KCore) Converged(old, new uint64) bool { return old == new }
