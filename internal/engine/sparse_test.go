package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// Sparse-superstep suites (DESIGN.md §9, §12): the masked pull fold, the
// stream path's two walks and the apply phase's two walks each replace a
// slower loop bit for bit. The broad differential suites already run them at
// whatever sizes their rules pick; these drive the corners the rules hide —
// idle values at the edge of their range, frontiers of zero and one vertex,
// both sides of every size rule on the same input.

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
		for _, k := range algorithms.All() {
			for _, src := range []uint32{0, g.V - 1} {
				ref := algorithms.RunReference(g, k, src, 100)
				for _, workers := range []int{1, 2, 4, 7} {
					t.Run(fmt.Sprintf("%s/%s/src=%d/workers=%d", g.Name, k.Name(), src, workers), func(t *testing.T) {
						e := New(g, Config{Workers: workers, shards: 2 * workers, tileSourceWidth: 8})
						assertBitIdentical(t, ref, runDir(t, e, k, src, 100, DirPull))
					})
				}
			}
		}
	}
}

// TestEngineSegmentDecodesOnlyToIndex is the store differential over a
// segment written with a tiny block target (hub rows split over many
// blocks): every kernel × direction × worker count matches the reference,
// and once an engine has built its indexes no run decodes a block — the
// engine reads its store to build, never to traverse.
func TestEngineSegmentDecodesOnlyToIndex(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	seg := openTestSegment(t, g, 64)
	src, _ := graph.HighestDegreeVertexStore(seg)
	refs := map[string]*algorithms.ReferenceResult{}
	for _, k := range algorithms.All() {
		refs[k.Name()] = algorithms.RunReference(g, k, src, 100)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, dir), func(t *testing.T) {
				e := NewFromStore(seg, Config{Workers: workers, shards: 2 * workers})
				for _, k := range algorithms.All() { // builds whatever dir needs
					assertBitIdentical(t, refs[k.Name()], runDir(t, e, k, src, 100, dir))
				}
				blocks, edges := seg.Decoded()
				for _, k := range algorithms.All() {
					assertBitIdentical(t, refs[k.Name()], runDir(t, e, k, src, 100, dir))
				}
				if b, n := seg.Decoded(); b != blocks || n != edges {
					t.Fatalf("warm runs decoded %d blocks (%d edges), want none", b-blocks, n-edges)
				}
			})
		}
	}
}

// streamOnce runs one stream-path contribution phase on a fresh run state
// with the walk pinned, and returns the state for inspection.
func streamOnce(e *Engine, k algorithms.Kernel, prop []uint64, frontier []uint32, byFrontier bool) (*runState, string) {
	rs := newRunState(e)
	rs.width = 2
	rs.opts.forceFrontierWalk = &byFrontier
	for i := range rs.vtemp {
		rs.vtemp[i] = k.Identity()
	}
	return rs, rs.streamContributions(k, fastOpsFor(k), prop, frontier)
}

// TestStreamWalksAgree runs the frontier walk and the source walk over the
// same frontiers — empty, one vertex, every vertex, only the last source —
// and demands the same accumulators and the same touched lists, in order.
func TestStreamWalksAgree(t *testing.T) {
	g := graph.Kronecker("kronecker", 9, 8, 4)
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
		"empty": {}, "one": {hub}, "all": all, "last-source": {lastSrc}, "first-and-last": {0, lastSrc},
		"thin": {1, 17, 18, 200, 201, 202, 400, lastSrc},
	}
	for _, st := range []graph.GraphStore{graph.AsStore(g), openTestSegment(t, g, 128)} {
		e := NewFromStore(st, Config{Workers: 2, shards: 5})
		for _, name := range []string{"cc", "sssp", "sswp", "lp"} {
			k, err := algorithms.New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, generic := range []bool{false, true} {
				if generic {
					k = opaqueKernel{k}
				}
				// Every vertex carries a property a frontier vertex could hold.
				prop, _ := algorithms.CC{}.Init(g.V, 0)
				for fname, frontier := range frontiers {
					byF, walkF := streamOnce(e, k, prop, frontier, true)
					byS, walkS := streamOnce(e, k, prop, frontier, false)
					if walkF != "frontier" || walkS != "sources" {
						t.Fatalf("walks reported %q and %q", walkF, walkS)
					}
					if !slices.Equal(byF.vtemp, byS.vtemp) {
						t.Errorf("%s/%s: accumulators differ between the walks", k.Descriptor().Name, fname)
					}
					for s := range byF.touched {
						if !slices.Equal(byF.touched[s], byS.touched[s]) {
							t.Errorf("%s/%s: shard %d touched %v by the frontier walk, %v by the source walk",
								k.Descriptor().Name, fname, s, byF.touched[s], byS.touched[s])
						}
					}
					if fname == "empty" && slices.ContainsFunc(byF.touched, func(l []uint32) bool { return len(l) > 0 }) {
						t.Errorf("%s: an empty frontier touched something", k.Descriptor().Name)
					}
					if byS.active.recount() != 0 {
						t.Errorf("%s/%s: the source walk left frontier bits set", k.Descriptor().Name, fname)
					}
				}
			}
		}
	}
}

// TestGallop checks the search under the frontier walk against the
// definition, on lists with runs, gaps and both ends.
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

// TestApplyWalksAgree drives both sides of the apply phase's density rule.
// One phase at a time: the same touched set applied by the ordered range
// walk and by walk-and-sort must leave the same properties and the same
// ascending activation lists — for LP too, whose Apply adopts a larger label
// and is the one kernel where "touched but not improved" activates. Then
// whole runs with each side pinned, every kernel, against the reference.
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
			// Sides: range walk pinned, walk-and-sort pinned, and the rule
			// left to choose per shard — which must be the range walk
			// exactly where the touched list is dense in the shard's range.
			yes, no := true, false
			var lists [3][][]uint32
			var props [3][]uint64
			var ruled [2]int
			for side, force := range []*bool{&yes, &no, nil} {
				prop, _ := algorithms.CC{}.Init(g.V, 0)
				slices.Reverse(prop) // so that min folds move some vertices and not others
				rs, _ := streamOnce(e, k, prop, frontier, false)
				rs.opts.forceApplyScan = force
				rs.applySparse(k, prop, k.Identity())
				lists[side], props[side] = rs.next, prop
				for s, next := range rs.next {
					want := applyScanDensity*len(rs.touched[s]) >= int(e.bounds[s+1]-e.bounds[s])
					if force != nil {
						want = *force
					} else if want {
						ruled[0]++
					} else {
						ruled[1]++
					}
					if !slices.IsSorted(next) || rs.scanned[s] != want {
						t.Fatalf("%s/%s side %d: shard %d next %v, range walk %v, want %v", name, fname, side, s, next, rs.scanned[s], want)
					}
				}
				if slices.Contains(rs.updated, true) || slices.ContainsFunc(rs.vtemp, func(x uint64) bool { return x != k.Identity() }) {
					t.Fatalf("%s/%s side %d: apply left marks or accumulators behind", name, fname, side)
				}
			}
			if fname == "all" && ruled[1] > 0 || fname == "thin" && ruled[0] > 0 {
				t.Errorf("%s/%s: the rule sent %d shards to the range walk and %d to walk-and-sort", name, fname, ruled[0], ruled[1])
			}
			activated := 0
			for side := 1; side < len(lists); side++ {
				if !slices.Equal(props[0], props[side]) {
					t.Errorf("%s/%s: properties differ between apply sides 0 and %d", name, fname, side)
				}
				for s := range lists[0] {
					activated += len(lists[0][s])
					if !slices.Equal(lists[0][s], lists[side][s]) {
						t.Errorf("%s/%s: shard %d activates %v on side 0, %v on side %d", name, fname, s, lists[0][s], lists[side][s], side)
					}
				}
			}
			if fname == "all" && activated == 0 {
				t.Errorf("%s/%s: nothing activated; the comparison is vacuous", name, fname)
			}
		}
	}

	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, scan := range []bool{true, false} {
			for _, workers := range []int{1, 2, 4, 7} {
				for _, dir := range []Direction{DirPush, DirPull} {
					opts := forceDir(dir)
					opts.forceApplyScan = &scan
					got, err := New(g, Config{Workers: workers, shards: 2 * workers}).
						RunCtx(context.Background(), k, src, 100, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, ref, got)
				}
			}
		}
	}
}

// TestSparseSpanAttributes pins what a sparse superstep span says about the
// walks it took: stream spans name their walk, every sparse span counts the
// shards that applied by range walk, and the sub-CSR build a store-backed
// engine performs on its first push superstep is attributed to that
// superstep's index_build_ns, once.
func TestSparseSpanAttributes(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	seg := openTestSegment(t, g, 0)
	src, _ := graph.HighestDegreeVertexStore(seg)
	k, _ := algorithms.New("sssp")
	e := NewFromStore(seg, Config{Workers: 2, shards: 4})
	for run := 0; run < 2; run++ {
		tr := obs.NewTrace()
		if _, err := e.RunCtx(context.Background(), k, src, 100, RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		walks := map[string]int{}
		pulls, firstPush := 0, true
		for _, sp := range tr.Spans() {
			scanShards, ok := sp.Attrs["apply_scan_shards"].(int)
			if !ok || scanShards < 0 || scanShards > e.shards {
				t.Fatalf("span %v: apply_scan_shards = %v", sp.Attrs["iter"], sp.Attrs["apply_scan_shards"])
			}
			if sp.Attrs["strategy"] == "pull" {
				if _, has := sp.Attrs["walk"]; has {
					t.Errorf("pull span %v carries a walk", sp.Attrs["iter"])
				}
				pulls++
				continue
			}
			// A store-backed engine never scatters: every push is a stream.
			if sp.Attrs["path"] != "stream" {
				t.Fatalf("span %v: push path %v on a store-backed engine", sp.Attrs["iter"], sp.Attrs["path"])
			}
			walk, _ := sp.Attrs["walk"].(string)
			walks[walk]++
			_, built := sp.Attrs["index_build_ns"]
			if want := run == 0 && firstPush; built != want {
				t.Errorf("run %d span %v: index_build_ns present = %v, want %v", run, sp.Attrs["iter"], built, want)
			}
			firstPush = false
		}
		if walks["frontier"] == 0 || walks["frontier"]+walks["sources"] != len(tr.Spans())-pulls {
			t.Errorf("run %d: walks %v over %d push spans, want only frontier and sources, frontier at least once",
				run, walks, len(tr.Spans())-pulls)
		}
	}
}
