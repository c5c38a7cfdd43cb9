package engine

import (
	"context"
	"fmt"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// TestEngineDirectionsMatchReference is the direction-optimization
// differential suite: forced push, forced pull, and auto mode must all be
// bit-identical to the serial reference — every kernel × every generator
// family × worker counts including a non-power-of-two. Push is included
// even though the base suite covers DirAuto defaults because auto may
// never visit some (kernel, graph) corners of a pure strategy. Each
// direction runs twice: at the engine's configured width, and with a width
// callback that flips 1↔N at every superstep boundary — the schedule the
// runner's slot rebalancing produces.
func TestEngineDirectionsMatchReference(t *testing.T) {
	for _, g := range diffGraphs() {
		src, _ := graph.HighestDegreeVertex(g)
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, src, 100)
			for _, dir := range []Direction{DirPush, DirPull, DirAuto} {
				for _, workers := range []int{1, 2, 4, 7} {
					name := fmt.Sprintf("%s/%s/%s/workers=%d", g.Name, k.Name(), dir, workers)
					t.Run(name, func(t *testing.T) {
						// Shards is pinned to 2×requested-workers so shard
						// diversity survives the GOMAXPROCS/NumCPU worker
						// clamp on small hosts.
						e := New(g, Config{Workers: workers, shards: 2 * workers})
						assertBitIdentical(t, ref, runDir(t, e, k, src, 100, dir))
						if workers == 1 {
							return // nothing to flip between
						}
						opts := forceDir(dir)
						opts.Width = flipWidth(workers)
						got, err := e.RunCtx(context.Background(), k, src, 100, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, ref, got)
					})
				}
			}
		}
	}
}

// TestEngineForcedMidRunSwitch alternates push and pull every iteration via
// the forceStrategy hook — the hardest schedule for the cross-direction
// state handoff (bitmap teardown, vtemp partial folds, touched lists, lazy
// CSC build mid-run) — and still demands bit-identity. A second pattern
// switches once at iteration 3, mimicking what the Beamer heuristic does on
// BFS (push the thin start, pull the fat middle). The pattern travels in
// the run's options, so one engine serves every pattern.
func TestEngineForcedMidRunSwitch(t *testing.T) {
	patterns := map[string]func(iter int) Direction{
		"alternating": func(iter int) Direction {
			if iter%2 == 0 {
				return DirPush
			}
			return DirPull
		},
		"pull-after-3": func(iter int) Direction {
			if iter < 3 {
				return DirPush
			}
			return DirPull
		},
		"push-after-3": func(iter int) Direction {
			if iter < 3 {
				return DirPull
			}
			return DirPush
		},
	}
	for _, g := range diffGraphs() {
		src, _ := graph.HighestDegreeVertex(g)
		e := New(g, Config{Workers: 4, shards: 8})
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, src, 100)
			for pname, force := range patterns {
				t.Run(fmt.Sprintf("%s/%s/%s", g.Name, k.Name(), pname), func(t *testing.T) {
					got, err := e.RunCtx(context.Background(), k, src, 100,
						RunOptions{Width: flipWidth(4), forceStrategy: force})
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, ref, got)
				})
			}
		}
	}
}

// TestEnginePullTileWidthInvariance checks the third determinism axis pull
// mode adds: the source-tile width. Tiny widths (64 — dozens of tiles,
// every multi-tile fold path exercised) through a width covering the whole
// graph (untiled degenerate) must be bit-identical.
func TestEnginePullTileWidthInvariance(t *testing.T) {
	g := graph.Kronecker("kron", 10, 8, 31)
	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, width := range []uint32{64, 1000, 1 << 20} {
			got := runDir(t, New(g, Config{Workers: 4, shards: 8, tileSourceWidth: width}), k, src, 100, DirPull)
			if got.EdgeVisits != ref.EdgeVisits || got.Iterations != ref.Iterations {
				t.Fatalf("%s width=%d: visits/iters diverged", k.Name(), width)
			}
			assertBitIdentical(t, ref, got)
		}
	}
}

// TestEnginePullGenericPath forces pull mode with the fast paths hidden,
// proving the generic Process/Reduce pull loop — the user-kernel path —
// bit-identical too.
func TestEnginePullGenericPath(t *testing.T) {
	g := graph.Kronecker("kron", 9, 8, 21)
	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 4} {
			got := runDir(t, New(g, Config{Workers: workers, shards: 2 * workers}), opaqueKernel{k}, src, 100, DirPull)
			assertBitIdentical(t, ref, got)
		}
	}
}

// TestEngineAutoSwitchesOnBFS pins the heuristic's observable behavior on a
// fat-middle traversal: with the Beamer defaults, a Kronecker BFS from the
// hub must actually use both directions (otherwise the auto rows in the
// benchmarks measure nothing), and the superstep counters must advance by
// exactly the per-direction iteration split.
func TestEngineAutoSwitchesOnBFS(t *testing.T) {
	g := graph.Kronecker("kron", 12, 8, 7)
	src, _ := graph.HighestDegreeVertex(g)
	k, _ := algorithms.New("bfs")
	ref := algorithms.RunReference(g, k, src, 100)

	push0, pull0 := SuperstepCounts()
	e := New(g, Config{Workers: 2})
	got := e.Run(k, src, 100)
	assertBitIdentical(t, ref, got)
	push1, pull1 := SuperstepCounts()

	dPush, dPull := push1-push0, pull1-pull0
	if dPush+dPull != uint64(got.Iterations) {
		t.Fatalf("superstep counters moved %d+%d, want %d iterations", dPush, dPull, got.Iterations)
	}
	if dPush == 0 || dPull == 0 {
		t.Fatalf("auto mode never switched: push=%d pull=%d", dPush, dPull)
	}
}

// TestBitmap checks the dense frontier: incremental popcount against the
// ground-truth recount through set/clear/setAll/clearAll, idempotence, and
// word-boundary vertices.
func TestBitmap(t *testing.T) {
	b := newBitmap(200)
	if b.count() != 0 || b.recount() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	vs := []uint32{0, 1, 63, 64, 65, 127, 128, 199}
	b.setAll(vs)
	if b.count() != len(vs) || b.recount() != len(vs) {
		t.Fatalf("count = %d/%d, want %d", b.count(), b.recount(), len(vs))
	}
	b.set(63) // idempotent
	if b.count() != len(vs) {
		t.Fatalf("double set changed count to %d", b.count())
	}
	for _, v := range vs {
		if !b.test(v) {
			t.Fatalf("bit %d not set", v)
		}
	}
	if b.test(2) || b.test(66) || b.test(198) {
		t.Fatal("unset bit reads true")
	}
	b.clear(64)
	b.clear(64) // idempotent
	if b.count() != len(vs)-1 || b.recount() != len(vs)-1 {
		t.Fatalf("count after clear = %d/%d", b.count(), b.recount())
	}
	b.clearAll(vs)
	if b.count() != 0 || b.recount() != 0 {
		t.Fatalf("count after clearAll = %d/%d", b.count(), b.recount())
	}
	for _, w := range b.words {
		if w != 0 {
			t.Fatal("clearAll left a word nonzero")
		}
	}
}

// TestEnginePullSmallGraphs runs the degenerate shapes through forced pull:
// chains, self-loops, single vertices, and the vertex-free graph (zero
// tiles).
func TestEnginePullSmallGraphs(t *testing.T) {
	cases := []*graph.CSR{
		graph.FromEdges("chain", 5, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 3, Weight: 3}, {Src: 3, Dst: 4, Weight: 4}}),
		graph.FromEdges("lonely", 1, nil),
		graph.FromEdges("selfloop", 2, []graph.Edge{{Src: 0, Dst: 0, Weight: 9}, {Src: 0, Dst: 1, Weight: 2}}),
	}
	for _, g := range cases {
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, 0, 50)
			got := runDir(t, New(g, Config{Workers: 3, shards: 6}), k, 0, 50, DirPull)
			assertBitIdentical(t, ref, got)
		}
	}
	empty := graph.FromEdges("empty", 0, nil)
	for _, name := range []string{"pr", "cc"} {
		k, _ := algorithms.New(name)
		ref := algorithms.RunReference(empty, k, 0, 50)
		got := runDir(t, New(empty, Config{Workers: 3, shards: 6}), k, 0, 50, DirPull)
		assertBitIdentical(t, ref, got)
	}
}
