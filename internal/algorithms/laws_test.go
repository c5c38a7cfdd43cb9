package algorithms

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel laws the engine's determinism argument leans on (kernel.go
// contract): Reduce must be commutative and associative with Identity as
// neutral element, and for the monotone kernels Apply(old, Identity()) must
// leave the property unchanged. PageRank is the documented exception on two
// of the laws — see TestPageRankLawExceptions — which is exactly why the
// parallel engine replays the reference merge order instead of relying on
// associativity.

const lawTrials = 2000

// monotoneKernels are the registered kernels whose descriptor declares a
// monotone fold: Reduce is an exact lattice operation (min or max on
// uint64) and Apply folds the old property with the same operation
// (bfs, cc, sssp, sswp today).
func monotoneKernels() []Kernel {
	var ms []Kernel
	for _, k := range All() {
		if k.Descriptor().Monotone {
			ms = append(ms, k)
		}
	}
	return ms
}

// randOperand draws from the monotone kernels' full contribution domain:
// arbitrary uint64 bit patterns, biased toward the special values the
// kernels actually produce (0, small levels, and the "unreached" infinity).
func randOperand(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		return math.MaxUint64 // inf: BFS/CC/SSSP identity, SSWP source
	case 1:
		return 0 // SSWP identity
	case 2:
		return uint64(rng.Intn(256)) // weight-sized
	default:
		return rng.Uint64()
	}
}

// randRank draws from PageRank's contribution domain: non-negative finite
// float64 bit patterns (ranks are sums of damped positive terms; the
// reference never produces negative, NaN or ±Inf contributions).
func randRank(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		return 0 // +0.0, the PR identity
	case 1:
		return math.Float64bits(rng.Float64() * 1e16) // large magnitude
	default:
		return math.Float64bits(rng.Float64() * float64(rng.Intn(100)))
	}
}

func TestReduceCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range All() {
		draw := randOperand
		if k.Descriptor().OrderSensitiveReduce {
			draw = randRank // PR/PPR: IEEE addition is commutative on finite operands
		}
		for i := 0; i < lawTrials; i++ {
			a, b := draw(rng), draw(rng)
			if ab, ba := k.Reduce(a, b), k.Reduce(b, a); ab != ba {
				t.Fatalf("%s: Reduce(%#x, %#x) = %#x but Reduce(%#x, %#x) = %#x",
					k.Name(), a, b, ab, b, a, ba)
			}
		}
	}
}

func TestReduceAssociativeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range monotoneKernels() {
		for i := 0; i < lawTrials; i++ {
			a, b, c := randOperand(rng), randOperand(rng), randOperand(rng)
			l := k.Reduce(k.Reduce(a, b), c)
			r := k.Reduce(a, k.Reduce(b, c))
			if l != r {
				t.Fatalf("%s: Reduce not associative on (%#x, %#x, %#x): %#x != %#x",
					k.Name(), a, b, c, l, r)
			}
		}
	}
}

func TestReduceIdentityNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range All() {
		draw := randOperand
		if k.Descriptor().OrderSensitiveReduce {
			// PR/PPR identity is +0.0; x + 0.0 == x bitwise for every
			// non-negative finite x (only -0.0 would flip sign bits, and
			// ranks are never negative).
			draw = randRank
		}
		id := k.Identity()
		for i := 0; i < lawTrials; i++ {
			x := draw(rng)
			if got := k.Reduce(x, id); got != x {
				t.Fatalf("%s: Reduce(%#x, Identity) = %#x, want unchanged", k.Name(), x, got)
			}
			if got := k.Reduce(id, x); got != x {
				t.Fatalf("%s: Reduce(Identity, %#x) = %#x, want unchanged", k.Name(), x, got)
			}
		}
	}
}

func TestApplyIdentityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range monotoneKernels() {
		id := k.Identity()
		for i := 0; i < lawTrials; i++ {
			old := randOperand(rng)
			if got := k.Apply(old, id); got != old {
				t.Fatalf("%s: Apply(%#x, Identity) = %#x, want unchanged", k.Name(), old, got)
			}
		}
	}
}

// TestSupportGrowthContract holds every kernel declaring support-growth
// repair to the contract the stream layer's repair is derived from
// (RepairSupportGrowth): the property is threshold<<32 | member bit, Process
// contributes exactly the source's member bit whatever the weight and
// degree, Reduce is the integer sum with identity 0, and Apply may only
// clear the member bit, and only when the sum is short of the threshold. A
// kernel that declares the strategy without these would be repaired to a
// different set than it peels to.
func TestSupportGrowthContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	declared := 0
	for _, k := range All() {
		if k.Descriptor().Repair != RepairSupportGrowth {
			continue
		}
		declared++
		if k.Identity() != 0 {
			t.Fatalf("%s: Identity = %#x, want 0 (an empty sum)", k.Name(), k.Identity())
		}
		prop, _ := k.Init(4, 3)
		for v, p := range prop {
			if p != 3<<32|1 {
				t.Fatalf("%s: Init prop[%d] = %#x, want threshold<<32 | 1", k.Name(), v, p)
			}
		}
		for i := 0; i < lawTrials; i++ {
			threshold := uint64(rng.Intn(6))
			if i%8 == 0 {
				threshold = uint64(rng.Uint32())
			}
			old := threshold<<32 | uint64(rng.Intn(2))
			if got := k.Process(uint8(rng.Intn(256)), old, rng.Uint32()); got != old&1 {
				t.Fatalf("%s: Process(prop %#x) = %d, want the member bit %d", k.Name(), old, got, old&1)
			}
			a, b := uint64(rng.Uint32()), uint64(rng.Uint32())
			if got := k.Reduce(a, b); got != a+b {
				t.Fatalf("%s: Reduce(%d, %d) = %d, want the sum", k.Name(), a, b, got)
			}
			// Sums on both sides of the threshold, and at it.
			temp := threshold + uint64(rng.Intn(5)) - 2
			if temp > math.MaxUint32 {
				temp = 0
			}
			want := old
			if temp < threshold {
				want = old &^ 1
			}
			if got := k.Apply(old, temp); got != want {
				t.Fatalf("%s: Apply(%#x, sum %d) = %#x, want %#x", k.Name(), old, temp, got, want)
			}
		}
	}
	if declared == 0 {
		t.Fatal("no registered kernel declares support-growth repair")
	}
}

// TestPageRankLawExceptions pins down the two laws PageRank does NOT
// satisfy, so nobody "fixes" the engine to exploit them:
//
//  1. float64 Reduce is not associative — merge order changes result bits —
//     which is why the parallel engine must replay the reference's exact
//     per-vertex fold order rather than combine partial sums in any order.
//  2. Apply is not identity-preserving: it rebuilds the rank from the
//     teleport term, so Apply(old, Identity) == 0.15 regardless of old,
//     which is why PR vertices cannot skip Apply the way monotone kernels
//     with no incoming contributions can (the reference applies every
//     vertex every iteration, and so does the engine's dense mode).
func TestPageRankLawExceptions(t *testing.T) {
	pr := PageRank{}
	a := math.Float64bits(1e16)
	b := math.Float64bits(1)
	c := math.Float64bits(1)
	l := pr.Reduce(pr.Reduce(a, b), c) // (1e16 + 1) + 1 rounds both adds away
	r := pr.Reduce(a, pr.Reduce(b, c)) // 1e16 + 2 is exactly representable
	if l == r {
		t.Fatalf("PR: expected float64 associativity violation, got %#x both ways", l)
	}

	old := math.Float64bits(0.7)
	want := math.Float64bits(1 - 0.85) // the teleport term
	if got := pr.Apply(old, pr.Identity()); got != want {
		t.Fatalf("PR: Apply(old, Identity) = %#x, want teleport %#x", got, want)
	}
}
