package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// TestEngineDirectionsMatchReference is the direction-optimization
// differential suite: forced push, forced pull, and auto mode must all be
// bit-identical to the serial reference — every kernel × every generator
// family × worker counts including a non-power-of-two. Push is included
// even though the base suite covers dirAuto defaults because auto may
// never visit some (kernel, graph) corners of a pure strategy. Each
// direction runs twice: at the engine's configured width, and with a width
// callback that flips 1↔N at every superstep boundary — the schedule the
// runner's slot rebalancing produces.
func TestEngineDirectionsMatchReference(t *testing.T) {
	for _, g := range diffGraphs() {
		src, _ := graph.HighestDegreeVertex(g)
		for _, k := range allKernels() {
			ref := algorithms.RunReference(g, k, src, 100)
			for _, dir := range []direction{dirPush, dirPull, dirAuto} {
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
// state handoff (bitmap teardown, vtemp partial folds, touched marks, lazy
// CSC build mid-run) — and still demands bit-identity. A second pattern
// switches once at iteration 3, mimicking what the direction rule does on
// BFS (push the thin start, pull the fat middle). The pattern travels in
// the run's options, so one engine serves every pattern.
func TestEngineForcedMidRunSwitch(t *testing.T) {
	patterns := map[string]func(iter int) direction{
		"alternating": func(iter int) direction {
			if iter%2 == 0 {
				return dirPush
			}
			return dirPull
		},
		"pull-after-3": func(iter int) direction {
			if iter < 3 {
				return dirPush
			}
			return dirPull
		},
		"push-after-3": func(iter int) direction {
			if iter < 3 {
				return dirPull
			}
			return dirPush
		},
	}
	for _, g := range diffGraphs() {
		src, _ := graph.HighestDegreeVertex(g)
		e := New(g, Config{Workers: 4, shards: 8})
		for _, k := range allKernels() {
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
	for _, k := range allKernels() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, width := range []uint32{64, 1000, 1 << 20} {
			got := runDir(t, New(g, Config{Workers: 4, shards: 8, tileSourceWidth: width}), k, src, 100, dirPull)
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
	for _, k := range allKernels() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 4} {
			got := runDir(t, New(g, Config{Workers: workers, shards: 2 * workers}), opaqueKernel{k}, src, 100, dirPull)
			assertBitIdentical(t, ref, got)
		}
	}
}

// TestEngineAutoSwitchesOnBFS pins the direction rule's observable behavior
// on a fat-middle traversal: a Kronecker BFS from the hub must actually use
// both directions (otherwise the auto rows in the
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

// sparseGains is the pull gain each sparse kernel's loop must declare:
// Beamer's α for the early-exit loop (bfs), 4 for the masked folds, 1.5 for
// the generic loop (lp, and any kernel the registry of loops does not know).
var sparseGains = map[string]float64{"bfs": 14, "cc": 4, "sssp": 4, "sswp": 4, "lp": 1.5, "opaque-bfs": 1.5}

// TestAutoPullRule pins the direction rule, pull iff gain·m_f > E. For every
// sparse kernel of the registry and one unregistered kernel: a frontier edge
// mass one below E/gain and at it pushes, one above pulls. Then a run on a
// fat-middle graph must take, superstep by superstep, the direction the rule
// names for that superstep's edge mass — right after a pull superstep too,
// so nothing carries between supersteps — and the rule, asked again in
// reverse order, must give the same answers.
func TestAutoPullRule(t *testing.T) {
	const edges = 42000 // a multiple of every E/gain below
	g := graph.Kronecker("kron", 12, 8, 7)
	src, _ := graph.HighestDegreeVertex(g)
	e := New(g, Config{Workers: 2})
	kernels := []algorithms.Kernel{opaqueKernel{algorithms.BFS{}}}
	for _, k := range allKernels() {
		if !k.Descriptor().AllActive {
			kernels = append(kernels, k)
		}
	}
	for _, k := range kernels {
		name := k.Descriptor().Name
		gain, ok := sparseGains[name]
		if !ok {
			t.Fatalf("sparse kernel %s has no pull gain in sparseGains", name)
		}
		fp := fastOpsFor(k)
		at := uint64(edges / gain)
		for m, want := range map[uint64]bool{at - 1: false, at: false, at + 1: true} {
			if got := autoPull(fp, m, edges); got != want {
				t.Errorf("%s: m_f %d of E %d (E/gain %d) pulls = %v, want %v", name, m, edges, at, got, want)
			}
		}

		tr := obs.NewTrace()
		if _, err := e.RunCtx(context.Background(), k, src, 100, RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		var masses []uint64
		var pulls []bool
		afterPull := 0
		for i, sp := range tr.Spans() {
			m := sp.Attrs["edges"].(uint64)
			pull := sp.Attrs["strategy"] == "pull"
			if want := gain*float64(m) > float64(g.E()); pull != want {
				t.Errorf("%s superstep %d: m_f %d of E %d pulls = %v, want %v", name, i, m, g.E(), pull, want)
			}
			if i > 0 && pulls[i-1] {
				afterPull++
			}
			masses, pulls = append(masses, m), append(pulls, pull)
		}
		if name == "bfs" && afterPull == 0 {
			t.Errorf("bfs run has no superstep after a pull superstep: %v", pulls)
		}
		for i := len(masses) - 1; i >= 0; i-- {
			if got := autoPull(fp, masses[i], g.E()); got != pulls[i] {
				t.Errorf("%s: rule asked again for superstep %d pulls = %v, run pulled = %v", name, i, got, pulls[i])
			}
		}
	}
}

// TestBitmap checks the frontier bitmap word by word: setAll marks exactly
// the given vertices, word-boundary ones included, setting twice is
// idempotent, and clearAll restores the all-zero words.
func TestBitmap(t *testing.T) {
	b := newBitmap(200)
	if len(b) != 4 || slices.ContainsFunc(b, nonzero) {
		t.Fatalf("fresh bitmap %#x, want 4 zero words", b)
	}
	vs := []uint32{0, 1, 63, 64, 65, 127, 128, 199}
	b.setAll(vs)
	b.setAll(vs[3:4]) // idempotent
	want := []uint64{1<<0 | 1<<1 | 1<<63, 1<<0 | 1<<1 | 1<<63, 1 << 0, 1 << (199 - 192)}
	if !slices.Equal(b, want) {
		t.Fatalf("after setAll words %#x, want %#x", b, want)
	}
	b.clearAll(vs[:4])
	want = []uint64{0, 1<<1 | 1<<63, 1 << 0, 1 << (199 - 192)}
	if !slices.Equal(b, want) {
		t.Fatalf("after a partial clearAll words %#x, want %#x", b, want)
	}
	b.clearAll(vs)
	if slices.ContainsFunc(b, nonzero) {
		t.Fatalf("clearAll left words %#x", b)
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
		for _, k := range allKernels() {
			ref := algorithms.RunReference(g, k, 0, 50)
			got := runDir(t, New(g, Config{Workers: 3, shards: 6}), k, 0, 50, dirPull)
			assertBitIdentical(t, ref, got)
		}
	}
	empty := graph.FromEdges("empty", 0, nil)
	for _, name := range []string{"pr", "cc"} {
		k, _ := algorithms.New(name)
		ref := algorithms.RunReference(empty, k, 0, 50)
		got := runDir(t, New(empty, Config{Workers: 3, shards: 6}), k, 0, 50, dirPull)
		assertBitIdentical(t, ref, got)
	}
}
