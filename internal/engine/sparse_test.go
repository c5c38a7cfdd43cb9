package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// Sparse-superstep suites (DESIGN.md §9, §12): the masked pull fold replaces
// a slower loop bit for bit, the push phase's row walk folds each frontier
// edge once in the reference order, and the apply phase turns the touched
// bitmap into the next frontier. The broad differential suites already run
// them at whatever sizes their rules pick; these drive the corners the rules
// hide — idle values at the edge of their range, frontiers of zero and one
// vertex, destinations on the shard bounds.

// maskedFoldGraphs are the masked fold's corner cases. Every graph leaves
// vertices unreached, so destinations exist whose every in-neighbour is
// inactive or at the kernel's "never reached" property for the whole run.
func maskedFoldGraphs() []*graph.CSR {
	// extremes: weights at both ends of uint8 on reached and unreached
	// sources. Vertex 0 reaches 1, 2, 6, 7; vertices 3 and 8 are sources
	// nothing reaches, so 4, 5's edge from 3 and 9 see only idle values
	// (sssp: idle+7 and idle+254 land below inf and must be discarded,
	// idle+255 is inf itself); 6 and 7 hang off vertex 0, which is reached
	// but inactive from the second superstep on.
	extremes := graph.FromEdges("extremes", 10, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 255}, {Src: 1, Dst: 2, Weight: 255}, {Src: 0, Dst: 2, Weight: 255},
		{Src: 0, Dst: 6, Weight: 255}, {Src: 0, Dst: 7, Weight: 1}, {Src: 0, Dst: 7, Weight: 0},
		{Src: 3, Dst: 4, Weight: 255}, {Src: 3, Dst: 4, Weight: 7}, {Src: 3, Dst: 5, Weight: 0},
		{Src: 1, Dst: 5, Weight: 254}, {Src: 2, Dst: 5, Weight: 0},
		{Src: 8, Dst: 9, Weight: 254}, {Src: 8, Dst: 9, Weight: 255}, {Src: 8, Dst: 9, Weight: 0},
	})
	// islands: isolated vertices (2, 5, 9), multi-edges and a self-loop for
	// cc's label fold.
	islands := graph.FromEdges("islands", 10, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 3},
		{Src: 3, Dst: 4, Weight: 2}, {Src: 4, Dst: 3, Weight: 2}, {Src: 4, Dst: 3, Weight: 9},
		{Src: 6, Dst: 7, Weight: 5}, {Src: 7, Dst: 8, Weight: 5}, {Src: 8, Dst: 6, Weight: 5},
		{Src: 8, Dst: 8, Weight: 1}, {Src: 7, Dst: 1, Weight: 4},
	})
	// lastTile: with 8-vertex tiles, vertex 5's in-edge row spans tiles 0, 2,
	// 5 and 12, and a traversal from 99 activates only the last piece first.
	lastTile := graph.FromEdges("last-tile", 100, []graph.Edge{
		{Src: 1, Dst: 5, Weight: 3}, {Src: 20, Dst: 5, Weight: 200}, {Src: 40, Dst: 5, Weight: 0},
		{Src: 99, Dst: 5, Weight: 255}, {Src: 99, Dst: 40, Weight: 2}, {Src: 40, Dst: 20, Weight: 1},
		{Src: 5, Dst: 1, Weight: 9}, {Src: 5, Dst: 60, Weight: 254},
	})
	// random: sparse enough that most vertices stay unreached, weights drawn
	// from the ends of the range, duplicates allowed.
	rng := rand.New(rand.NewSource(19))
	weights := []uint8{0, 1, 254, 255}
	var edges []graph.Edge
	for i := 0; i < 260; i++ {
		edges = append(edges, graph.Edge{
			Src: uint32(rng.Intn(200)), Dst: uint32(rng.Intn(200)), Weight: weights[rng.Intn(len(weights))],
		})
	}
	return []*graph.CSR{extremes, islands, lastTile, graph.FromEdges("random-extremes", 200, edges)}
}

// TestMaskedPullEdgeCases forces pull on every superstep — the first is
// always a frontier of one vertex for the source kernels — over tiles narrow
// enough that rows split, and demands the reference's bits.
func TestMaskedPullEdgeCases(t *testing.T) {
	for _, g := range maskedFoldGraphs() {
		for _, k := range allKernels() {
			for _, src := range []uint32{0, g.V - 1} {
				ref := algorithms.RunReference(g, k, src, 100)
				for _, workers := range []int{1, 2, 4, 7} {
					t.Run(fmt.Sprintf("%s/%s/src=%d/workers=%d", g.Name, k.Name(), src, workers), func(t *testing.T) {
						e := New(g, Config{Workers: workers, shards: 2 * workers, tileSourceWidth: 8})
						assertBitIdentical(t, ref, runDir(t, e, k, src, 100, dirPull))
					})
				}
			}
		}
	}
}

// TestEngineSegmentDecodesOnlyToIndex is the store differential over a
// segment written with a tiny block target (hub rows split over many
// blocks): every kernel × direction × worker count matches the reference,
// NewFromStore decodes the segment exactly once (into the CSR whose rows it
// keeps and whose transpose it builds) and no run decodes a block — the
// engine reads its store to build, never to traverse.
func TestEngineSegmentDecodesOnlyToIndex(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	seg := openTestSegment(t, g, 64)
	src, _ := graph.HighestDegreeVertexStore(seg)
	refs := map[string]*algorithms.ReferenceResult{}
	for _, k := range allKernels() {
		refs[k.Name()] = algorithms.RunReference(g, k, src, 100)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, dir := range []direction{dirAuto, dirPush, dirPull} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, dir), func(t *testing.T) {
				before, _ := seg.Decoded()
				e := NewFromStore(seg, Config{Workers: workers, shards: 2 * workers})
				blocks, edges := seg.Decoded()
				if want := uint64(seg.NumBlocks()); blocks-before != want {
					t.Fatalf("NewFromStore decoded %d blocks, want %d (one pass)", blocks-before, want)
				}
				for _, k := range allKernels() {
					assertBitIdentical(t, refs[k.Name()], runDir(t, e, k, src, 100, dir))
				}
				if b, n := seg.Decoded(); b != blocks || n != edges {
					t.Fatalf("runs decoded %d blocks (%d edges), want none", b-blocks, n-edges)
				}
			})
		}
	}
}

// nonzero reports whether a bitmap word has any bit set.
func nonzero(w uint64) bool { return w != 0 }

// streamOnce runs one push-phase contribution fold on a fresh run state and
// returns the state for inspection.
func streamOnce(e *Engine, k algorithms.Kernel, prop []uint64, frontier []uint32) *runState {
	rs := newRunState(e)
	rs.width = 2
	for i := range rs.vtemp {
		rs.vtemp[i] = k.Identity()
	}
	rs.streamContributions(k, fastOpsFor(k), prop, e.pull.degs, frontier)
	return rs
}

// ownerOf maps every destination to the shard whose range holds it, reading
// the bounds linearly.
func ownerOf(bounds []uint32) []int {
	owner := make([]int, bounds[len(bounds)-1])
	for s := 0; s+1 < len(bounds); s++ {
		for v := bounds[s]; v < bounds[s+1]; v++ {
			owner[v] = s
		}
	}
	return owner
}

// TestPushFoldsEachEdgeOnce holds one push phase against a model: for every
// frontier source in ascending order, every edge of its row folded into its
// destination. PageRank's float64 sum has no stream loop, so the generic fold
// runs, and a sum sees an edge folded twice or out of order, which a min
// fold forgives. At 5 and 23 shards — empty ones among them — on a CSR, on a
// segment whose tiny blocks split the hub rows and on an advanced engine, for
// frontiers of nothing, one vertex, a hub, every vertex and the last source.
func TestPushFoldsEachEdgeOnce(t *testing.T) {
	g := graph.Kronecker("kronecker", 9, 8, 4)
	batch := randomEdges(rand.New(rand.NewSource(9)), g.V, 300)
	ng := insertEdges(g, batch)
	lastSrc := g.V - 1
	for g.OutDeg(lastSrc) == 0 {
		lastSrc--
	}
	all := make([]uint32, g.V)
	for i := range all {
		all[i] = uint32(i)
	}
	hub, _ := graph.HighestDegreeVertex(g)
	frontiers := map[string][]uint32{
		"empty": {}, "one": {301}, "hub": {hub}, "all": all, "last-source": {lastSrc},
	}
	k := algorithms.PageRank{}
	prop, _ := k.Init(g.V, 0)
	for i := range prop {
		prop[i] = math.Float64bits(float64(i%7+1) / 3)
	}
	for _, shards := range []int{5, 23} {
		cfg := Config{Workers: 2, shards: shards}
		advanced, _ := New(g, cfg).Advance(batch)
		for _, c := range []struct {
			name string
			e    *Engine
			g    *graph.CSR
		}{{"csr", New(g, cfg), g}, {"segment", NewFromStore(openTestSegment(t, g, 64), cfg), g}, {"advanced", advanced, ng}} {
			for fname, frontier := range frontiers {
				want := make([]uint64, c.g.V)
				for i := range want {
					want[i] = k.Identity()
				}
				touched := newBitmap(c.g.V)
				for _, u := range frontier {
					dsts, ws := c.g.Neighbors(u)
					for i, v := range dsts {
						want[v] = k.Reduce(want[v], k.Process(ws[i], prop[u], c.g.OutDeg(u)))
						touched[v>>6] |= uint64(1) << (v & 63)
					}
				}
				rs := streamOnce(c.e, k, prop, frontier)
				if !slices.Equal(rs.vtemp, want) || !slices.Equal(rs.touched, touched) {
					t.Errorf("shards=%d/%s/%s: the push fold differs from the model", shards, c.name, fname)
				}
			}
		}
	}
}

// TestGallop checks the search under the row walk against the definition,
// on lists with runs, gaps and both ends.
func TestGallop(t *testing.T) {
	a := []uint32{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	for n := 0; n <= len(a); n++ {
		for x := uint32(0); x < 240; x++ {
			want, _ := slices.BinarySearch(a[:n], x)
			if got := gallop(a[:n], x); got != want {
				t.Fatalf("gallop(%v, %d) = %d, want %d", a[:n], x, got, want)
			}
		}
	}
}

// TestApplyWalksAgree checks the apply phase's word walk. One phase at a
// time, every sparse kernel — LP too, whose Apply adopts a larger label and
// is the one kernel where "touched but not improved" activates: after a
// stream phase, apply must leave each shard's next list equal to the marked
// vertices of its range whose property moved, ascending; the properties
// Apply gives them; every accumulator at the identity and every touched word
// zero. Then whole runs, every kernel, both directions, against the
// reference.
func TestApplyWalksAgree(t *testing.T) {
	g := graph.Kronecker("kronecker", 9, 8, 4)
	e := New(g, Config{Workers: 2, shards: 5})
	all := make([]uint32, g.V)
	for i := range all {
		all[i] = uint32(i)
	}
	for _, name := range []string{"cc", "sssp", "sswp", "lp"} {
		k, _ := algorithms.New(name)
		for fname, frontier := range map[string][]uint32{"thin": {301}, "all": all} {
			prop, _ := algorithms.CC{}.Init(g.V, 0)
			slices.Reverse(prop) // so that min folds move some vertices and not others
			rs := streamOnce(e, k, prop, frontier)
			// The model: every marked vertex, in ascending order.
			wantProp := slices.Clone(prop)
			wantNext := make([][]uint32, e.shards)
			owner := ownerOf(e.bounds)
			for v := uint32(0); v < g.V; v++ {
				if rs.touched[v>>6]&(uint64(1)<<(v&63)) == 0 {
					continue
				}
				if np := k.Apply(prop[v], rs.vtemp[v]); !k.Converged(prop[v], np) {
					wantProp[v] = np
					wantNext[owner[v]] = append(wantNext[owner[v]], v)
				}
			}
			rs.applySparse(k, prop, k.Identity())
			activated := 0
			for s, next := range rs.next {
				activated += len(next)
				if !slices.Equal(next, wantNext[s]) {
					t.Errorf("%s/%s: shard %d activates %v, want %v", name, fname, s, next, wantNext[s])
				}
			}
			if !slices.Equal(prop, wantProp) {
				t.Errorf("%s/%s: apply left properties other than Apply gives", name, fname)
			}
			if slices.ContainsFunc(rs.touched, nonzero) || slices.ContainsFunc(rs.vtemp, func(x uint64) bool { return x != k.Identity() }) {
				t.Fatalf("%s/%s: apply left marks or accumulators behind", name, fname)
			}
			if fname == "all" && activated == 0 {
				t.Errorf("%s/%s: nothing activated; the comparison is vacuous", name, fname)
			}
		}
	}

	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range allKernels() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 2, 4, 7} {
			for _, dir := range []direction{dirPush, dirPull} {
				got, err := New(g, Config{Workers: workers, shards: 2 * workers}).
					RunCtx(context.Background(), k, src, 100, forceDir(dir))
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, ref, got)
			}
		}
	}
}

// TestSparseSpanAttributes pins what a sparse superstep span says about its
// direction, on a CSR-backed and a store-backed engine alike: a push span
// reports stream_ns, a pull span pull_ns, and neither names a walk or an
// index build — the push phase has one walk and the index is built by New.
func TestSparseSpanAttributes(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	src, _ := graph.HighestDegreeVertex(g)
	k, _ := algorithms.New("sssp")
	cfg := Config{Workers: 2, shards: 4}
	for i, e := range []*Engine{New(g, cfg), NewFromStore(openTestSegment(t, g, 0), cfg)} {
		name := []string{"csr", "segment"}[i]
		tr := obs.NewTrace()
		if _, err := e.RunCtx(context.Background(), k, src, 100, RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		pushes := 0
		for _, sp := range tr.Spans() {
			iter := sp.Attrs["iter"]
			for _, gone := range []string{"path", "scatter_ns", "gather_ns", "walk", "index_build_ns"} {
				if _, has := sp.Attrs[gone]; has {
					t.Errorf("%s span %v carries %s", name, iter, gone)
				}
			}
			phase := "pull_ns"
			if sp.Attrs["strategy"] == "push" {
				phase = "stream_ns"
				pushes++
			}
			if _, has := sp.Attrs[phase]; !has {
				t.Fatalf("%s %v span %v has no %s: %v", name, sp.Attrs["strategy"], iter, phase, sp.Attrs)
			}
		}
		if pushes == 0 || pushes == len(tr.Spans()) {
			t.Errorf("%s: %d push spans of %d, want both directions", name, pushes, len(tr.Spans()))
		}
	}
}
