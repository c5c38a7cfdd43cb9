package engine

import (
	"math"

	"piccolo/internal/algorithms"
)

// fastOps are per-kernel monomorphized edge loops. The generic executor
// pays two interface calls (Process, Reduce) per edge; these fold a whole
// source's edge slice per call with the kernel's arithmetic inlined, which
// is where the engine's single-core advantage over the reference loop comes
// from. Every loop replays the exact reference semantics — Reduce(a, b) for
// min/max kernels is a compare-and-assign, and PageRank's per-edge
// contribution bits(prop/deg) is computed once per source (the division is
// deterministic, so hoisting it preserves bit-identity).
//
// Unknown (user-supplied) kernels fall back to the generic interface loops;
// the differential tests cover both paths.
type fastOps struct {
	// stream folds one source's in-shard edge slice into vtemp with
	// first-touch tracking (sparse streaming mode); returns the grown
	// touched list.
	stream func(vtemp []uint64, col []uint32, weight []uint8, pu uint64, deg uint32, updated []bool, touched []uint32) []uint32
	// dense folds one source's in-shard edge slice into vtemp without
	// touch tracking (AllActive mode).
	dense func(vtemp []uint64, col []uint32, weight []uint8, pu uint64, deg uint32)
	// scatter appends one source's (dst, contribution) pairs into the
	// chunk's per-shard buckets (sparse scatter mode).
	scatter func(bk [][]pair, owner []uint16, col []uint32, weight []uint8, pu uint64, deg uint32)
	// gather folds one materialized bucket into vtemp with first-touch
	// tracking; returns the grown touched list.
	gather func(vtemp []uint64, b []pair, updated []bool, touched []uint32) []uint32
	// pull folds one source-range tile destination by destination, testing
	// each in-edge's source against the frontier bitmap words (sparse pull
	// mode); returns the grown touched list.
	pull func(vtemp []uint64, t *pullTile, prop []uint64, degs []uint32, active []uint64, updated []bool, touched []uint32) []uint32
	// pullExitsEarly declares that pull leaves a destination's row at its
	// first active source and skips destinations already settled this
	// iteration, so a pull iteration over a fat frontier scans far fewer
	// than E in-edges. The auto direction choice prices pull by it
	// (autoPull); loops that fold whole rows leave it false.
	pullExitsEarly bool
	// maskedPull is the branch-free whole-row form of pull: it folds one
	// tile from src, which holds prop[u] for frontier sources and maskIdle —
	// a value whose contribution can never win the fold — for every other,
	// and touches a destination iff its accumulator moved. A kernel
	// registers pull or maskedPull, not both; autoPull prices a masked fold
	// below the bitmap and generic loops.
	maskedPull func(vtemp []uint64, t *pullTile, src []uint64, updated []bool, touched []uint32) []uint32
	maskIdle   uint64
	// densePrep materializes the per-source contribution for sources
	// [lo, hi) once per dense-pull iteration (AllActive mode).
	densePrep func(contrib, prop []uint64, degs []uint32, lo, hi uint32)
	// densePull folds one tile's rows from the prepped contrib array.
	densePull func(vtemp []uint64, t *pullTile, contrib []uint64)
}

// fastOpsRegistry maps a kernel's Descriptor().Name to its monomorphized
// loops. Keying by descriptor name (not Go type) keeps the engine free of
// per-kernel type switches: the loops below are registered implementations
// of the correspondingly named registry kernels, and a custom kernel under
// a new name simply misses and runs generically. A custom kernel must not
// reuse a registered name with different semantics — algorithms.Register
// already enforces name uniqueness for everything reachable through the
// registry.
var fastOpsRegistry = map[string]*fastOps{}

func registerFastOps(k algorithms.Kernel, ops *fastOps) {
	fastOpsRegistry[k.Descriptor().Name] = ops
}

func init() {
	registerFastOps(algorithms.PageRank{}, &fastOps{dense: densePR, densePrep: densePrepPR, densePull: densePullPR})
	registerFastOps(algorithms.BFS{}, &fastOps{stream: streamBFS, scatter: scatterBFS, gather: gatherMin, pull: pullBFS, pullExitsEarly: true})
	registerFastOps(algorithms.CC{}, &fastOps{stream: streamCC, scatter: scatterCC, gather: gatherMin, maskedPull: maskedPullCC, maskIdle: math.MaxUint64})
	registerFastOps(algorithms.SSSP{}, &fastOps{stream: streamSSSP, scatter: scatterSSSP, gather: gatherMin, maskedPull: maskedPullSSSP, maskIdle: idleSSSP})
	registerFastOps(algorithms.SSWP{}, &fastOps{stream: streamSSWP, scatter: scatterSSWP, gather: gatherMax, maskedPull: maskedPullSSWP, maskIdle: 0})
	registerFastOps(algorithms.PPR{}, &fastOps{dense: densePPR, densePrep: densePrepPPR, densePull: densePullPR})
}

// fastOpsFor resolves the specialized loops for a kernel; nil selects the
// generic interface path.
func fastOpsFor(k algorithms.Kernel) *fastOps {
	return fastOpsRegistry[k.Descriptor().Name]
}

// densePR: Process = bits(rank/deg), Reduce = float64 sum. deg ≥ 1 because
// the source has at least one edge in this shard.
func densePR(vtemp []uint64, col []uint32, _ []uint8, pu uint64, deg uint32) {
	c := math.Float64frombits(pu) / float64(deg)
	for _, v := range col {
		vtemp[v] = math.Float64bits(math.Float64frombits(vtemp[v]) + c)
	}
}

// BFS: contribution level+1, Reduce = min.
func streamBFS(vtemp []uint64, col []uint32, _ []uint8, pu uint64, _ uint32, updated []bool, touched []uint32) []uint32 {
	c := pu + 1
	for _, v := range col {
		if !updated[v] {
			updated[v] = true
			touched = append(touched, v)
		}
		if c < vtemp[v] {
			vtemp[v] = c
		}
	}
	return touched
}

func scatterBFS(bk [][]pair, owner []uint16, col []uint32, _ []uint8, pu uint64, _ uint32) {
	c := pu + 1
	for _, v := range col {
		s := owner[v]
		bk[s] = append(bk[s], pair{v, c})
	}
}

// CC: contribution = the source's label, Reduce = min.
func streamCC(vtemp []uint64, col []uint32, _ []uint8, pu uint64, _ uint32, updated []bool, touched []uint32) []uint32 {
	for _, v := range col {
		if !updated[v] {
			updated[v] = true
			touched = append(touched, v)
		}
		if pu < vtemp[v] {
			vtemp[v] = pu
		}
	}
	return touched
}

func scatterCC(bk [][]pair, owner []uint16, col []uint32, _ []uint8, pu uint64, _ uint32) {
	for _, v := range col {
		s := owner[v]
		bk[s] = append(bk[s], pair{v, pu})
	}
}

// SSSP: contribution = dist + weight, Reduce = min.
func streamSSSP(vtemp []uint64, col []uint32, weight []uint8, pu uint64, _ uint32, updated []bool, touched []uint32) []uint32 {
	for i, v := range col {
		c := pu + uint64(weight[i])
		if !updated[v] {
			updated[v] = true
			touched = append(touched, v)
		}
		if c < vtemp[v] {
			vtemp[v] = c
		}
	}
	return touched
}

func scatterSSSP(bk [][]pair, owner []uint16, col []uint32, weight []uint8, pu uint64, _ uint32) {
	for i, v := range col {
		s := owner[v]
		bk[s] = append(bk[s], pair{v, pu + uint64(weight[i])})
	}
}

// SSWP: contribution = min(capacity, weight), Reduce = max.
func streamSSWP(vtemp []uint64, col []uint32, weight []uint8, pu uint64, _ uint32, updated []bool, touched []uint32) []uint32 {
	for i, v := range col {
		c := uint64(weight[i])
		if pu < c {
			c = pu
		}
		if !updated[v] {
			updated[v] = true
			touched = append(touched, v)
		}
		if c > vtemp[v] {
			vtemp[v] = c
		}
	}
	return touched
}

func scatterSSWP(bk [][]pair, owner []uint16, col []uint32, weight []uint8, pu uint64, _ uint32) {
	for i, v := range col {
		c := uint64(weight[i])
		if pu < c {
			c = pu
		}
		s := owner[v]
		bk[s] = append(bk[s], pair{v, c})
	}
}

func gatherMin(vtemp []uint64, b []pair, updated []bool, touched []uint32) []uint32 {
	for _, p := range b {
		if !updated[p.dst] {
			updated[p.dst] = true
			touched = append(touched, p.dst)
		}
		if p.contrib < vtemp[p.dst] {
			vtemp[p.dst] = p.contrib
		}
	}
	return touched
}

func gatherMax(vtemp []uint64, b []pair, updated []bool, touched []uint32) []uint32 {
	for _, p := range b {
		if !updated[p.dst] {
			updated[p.dst] = true
			touched = append(touched, p.dst)
		}
		if p.contrib > vtemp[p.dst] {
			vtemp[p.dst] = p.contrib
		}
	}
	return touched
}

// pullBFS exploits the BFS wave invariant: every frontier vertex carries
// the same level L (levels only shrink via the min fold and each wave
// activates exactly the vertices that improved to L), so every active
// in-edge this iteration contributes the identical value L+1. The min
// fold over equal values is the first value, so the row can stop at its
// first active source, and a destination already marked updated this
// iteration can be skipped entirely — both cuts change nothing about the
// folded bits, which the differential suite checks against the reference.
func pullBFS(vtemp []uint64, t *pullTile, prop []uint64, _ []uint32, active []uint64, updated []bool, touched []uint32) []uint32 {
	for i, v := range t.dsts {
		if updated[v] {
			continue
		}
		for _, r := range t.row[t.rowPtr[i]:t.rowPtr[i+1]] {
			u := t.base + uint32(r)
			if active[u>>6]&(uint64(1)<<(u&63)) == 0 {
				continue
			}
			c := prop[u] + 1
			if c < vtemp[v] {
				vtemp[v] = c
			}
			updated[v] = true
			touched = append(touched, v)
			break
		}
	}
	return touched
}

// The masked folds are the whole-row pull loops (cc, sssp, sswp). Where
// pullBFS tests every in-edge's source against the frontier bitmap — one
// unpredictable branch per edge — these read the source's property from src,
// a per-run array the pull phase fills with the kernel's idle value and then
// overwrites with prop[u] for frontier vertices only (runState.maskSources).
// An idle source's contribution can never win the fold, so the row folds
// exactly as densePullPR's does, with no test per edge; active sources fold
// in row order, which is the reference order. A destination is touched iff
// its accumulator moved: one that only received losing contributions keeps
// vtemp = Identity, and Apply(old, Identity) = old for these kernels, so
// leaving it out of touched changes no property and no activation
// (DESIGN.md §12).

// maskedPullCC: contribution = the source's label, Reduce = min. Idle is
// inf, min's identity.
func maskedPullCC(vtemp []uint64, t *pullTile, src []uint64, updated []bool, touched []uint32) []uint32 {
	src = src[t.base:]
	for i, v := range t.dsts {
		old := vtemp[v]
		acc := old
		for _, r := range t.row[t.rowPtr[i]:t.rowPtr[i+1]] {
			acc = min(acc, src[r])
		}
		if acc != old {
			vtemp[v] = acc
			if !updated[v] {
				updated[v] = true
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// idleSSSP is the masked fold's idle distance: the largest value to which a
// weight can still be added without wrapping. idle+w lies in [idle, inf], a
// band no real distance reaches (real distances are below 255·V), so an
// accumulator that ends inside it saw no active source and is discarded.
const idleSSSP = math.MaxUint64 - math.MaxUint8

// maskedPullSSSP: contribution = dist + weight, Reduce = min.
func maskedPullSSSP(vtemp []uint64, t *pullTile, src []uint64, updated []bool, touched []uint32) []uint32 {
	src = src[t.base:]
	row, w := t.row, t.w[:len(t.row)]
	for i, v := range t.dsts {
		lo, hi := t.rowPtr[i], t.rowPtr[i+1]
		old := vtemp[v]
		acc := old
		for j := lo; j < hi; j++ {
			acc = min(acc, src[row[j]]+uint64(w[j]))
		}
		if acc != old && acc < idleSSSP {
			vtemp[v] = acc
			if !updated[v] {
				updated[v] = true
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// maskedPullSSWP: contribution = min(capacity, weight), Reduce = max. Idle
// is capacity 0: min(0, w) = 0 is max's identity.
func maskedPullSSWP(vtemp []uint64, t *pullTile, src []uint64, updated []bool, touched []uint32) []uint32 {
	src = src[t.base:]
	row, w := t.row, t.w[:len(t.row)]
	for i, v := range t.dsts {
		lo, hi := t.rowPtr[i], t.rowPtr[i+1]
		old := vtemp[v]
		acc := old
		for j := lo; j < hi; j++ {
			acc = max(acc, min(src[row[j]], uint64(w[j])))
		}
		if acc != old {
			vtemp[v] = acc
			if !updated[v] {
				updated[v] = true
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// pprSrcMask clears the PPR kernel's source marker (the float64 sign bit —
// ranks are non-negative, so the bit is free to tag the personalization
// source; see algorithms.PPR). PageRank props never set it, so these loops
// are PPR-only registrations.
const pprSrcMask = ^(uint64(1) << 63)

// densePPR: Process = bits(abs(rank)/deg), Reduce = float64 sum — densePR
// with the source marker stripped before the division.
func densePPR(vtemp []uint64, col []uint32, _ []uint8, pu uint64, deg uint32) {
	c := math.Float64frombits(pu&pprSrcMask) / float64(deg)
	for _, v := range col {
		vtemp[v] = math.Float64bits(math.Float64frombits(vtemp[v]) + c)
	}
}

// densePrepPPR materializes each source's PPR contribution once per
// iteration: bits(abs(rank)/deg); the fold itself then reuses densePullPR
// (the prepped contributions carry no marker).
func densePrepPPR(contrib, prop []uint64, degs []uint32, lo, hi uint32) {
	for u := lo; u < hi; u++ {
		if d := degs[u]; d > 0 {
			contrib[u] = math.Float64bits(math.Float64frombits(prop[u]&pprSrcMask) / float64(d))
		}
	}
}

// densePrepPR materializes each source's PageRank contribution once per
// iteration: bits(rank/deg). The division is deterministic and identical
// to the one densePR performs per source, and the bits round-trip exactly,
// so folding from contrib is bit-identical to folding per edge.
func densePrepPR(contrib, prop []uint64, degs []uint32, lo, hi uint32) {
	for u := lo; u < hi; u++ {
		if d := degs[u]; d > 0 {
			contrib[u] = math.Float64bits(math.Float64frombits(prop[u]) / float64(d))
		}
	}
}

// densePullPR register-accumulates one tile's rows: per destination, a
// float64 running sum over the prepped contributions in row order — the
// reference fold order — written back once per row.
func densePullPR(vtemp []uint64, t *pullTile, contrib []uint64) {
	contrib = contrib[t.base:]
	for i, v := range t.dsts {
		acc := math.Float64frombits(vtemp[v])
		for _, r := range t.row[t.rowPtr[i]:t.rowPtr[i+1]] {
			acc += math.Float64frombits(contrib[r])
		}
		vtemp[v] = math.Float64bits(acc)
	}
}
