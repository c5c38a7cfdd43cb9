package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// diffGraphs builds the three generator families the differential suite
// sweeps: low-variance uniform, power-law Kronecker, and the near-regular
// small-world lattice. Seeds are fixed so failures reproduce.
func diffGraphs() []*graph.CSR {
	return []*graph.CSR{
		graph.Uniform("uniform", 3000, 4, 11),
		graph.Kronecker("kronecker", 10, 8, 12),
		graph.WattsStrogatz("watts-strogatz", 2048, 6, 0.2, 13),
	}
}

// assertBitIdentical compares every observable of the two executors.
func assertBitIdentical(t *testing.T, ref, got *algorithms.ReferenceResult) {
	t.Helper()
	if got.Iterations != ref.Iterations {
		t.Fatalf("iterations = %d, reference %d", got.Iterations, ref.Iterations)
	}
	if got.EdgeVisits != ref.EdgeVisits {
		t.Fatalf("edge visits = %d, reference %d", got.EdgeVisits, ref.EdgeVisits)
	}
	if len(got.Prop) != len(ref.Prop) {
		t.Fatalf("prop length = %d, reference %d", len(got.Prop), len(ref.Prop))
	}
	for v := range ref.Prop {
		if got.Prop[v] != ref.Prop[v] {
			t.Fatalf("prop[%d] = %#x, reference %#x", v, got.Prop[v], ref.Prop[v])
		}
	}
}

// forceDir pins a run's sparse supersteps to dir through the forceStrategy
// hook; DirAuto leaves them to the heuristic. Dense supersteps always pull.
func forceDir(dir Direction) RunOptions {
	return RunOptions{forceStrategy: func(int) Direction { return dir }}
}

// runDir runs k on e with its sparse supersteps pinned to dir.
func runDir(t testing.TB, e *Engine, k algorithms.Kernel, src uint32, maxIters int, dir Direction) *Result {
	t.Helper()
	res, err := e.RunCtx(context.Background(), k, src, maxIters, forceDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineMatchesReference is the differential suite: all five kernels ×
// three generated graphs × worker counts {1, 2, 4, 7} must match the serial
// reference executor bit for bit — Prop, Iterations and EdgeVisits. The
// worker counts include a non-power-of-two so shard boundaries never align
// with any structural accident. Run under -race this also exercises the
// phase barriers.
func TestEngineMatchesReference(t *testing.T) {
	for _, g := range diffGraphs() {
		src, _ := graph.HighestDegreeVertex(g)
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, src, 100)
			for _, workers := range []int{1, 2, 4, 7} {
				name := fmt.Sprintf("%s/%s/workers=%d", g.Name, k.Name(), workers)
				t.Run(name, func(t *testing.T) {
					// Shards pinned to 2×requested-workers so shard diversity
					// survives the GOMAXPROCS/NumCPU worker clamp.
					got := New(g, Config{Workers: workers, shards: 2 * workers}).Run(k, src, 100)
					assertBitIdentical(t, ref, got)
				})
			}
		}
	}
}

// opaqueKernel hides the kernel from fastOpsFor — the registry is keyed by
// descriptor name, so the wrapper reports a masked name — forcing the
// engine down the generic interface loops.
type opaqueKernel struct{ algorithms.Kernel }

func (o opaqueKernel) Descriptor() algorithms.Descriptor {
	d := o.Kernel.Descriptor()
	d.Name = "opaque-" + d.Name
	return d
}

// TestEngineGenericPathMatchesReference re-runs the differential check with
// the per-kernel fast paths disabled, so the generic Process/Reduce loops —
// the path a user-supplied kernel takes — are proven bit-identical too.
func TestEngineGenericPathMatchesReference(t *testing.T) {
	g := graph.Kronecker("kron", 9, 8, 21)
	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 4} {
			got := New(g, Config{Workers: workers}).Run(opaqueKernel{k}, src, 100)
			assertBitIdentical(t, ref, got)
		}
	}
}

// TestEngineShardCountInvariance verifies the second determinism axis: the
// shard count (not just the worker count) is result-invariant, including
// the degenerate single-shard engine.
func TestEngineShardCountInvariance(t *testing.T) {
	g := graph.Kronecker("kron", 9, 8, 3)
	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, shards := range []int{1, 3, 16, 129} {
			got := New(g, Config{Workers: 4, shards: shards}).Run(k, src, 100)
			if got.Iterations != ref.Iterations || got.EdgeVisits != ref.EdgeVisits ||
				!reflect.DeepEqual(got.Prop, ref.Prop) {
				t.Fatalf("%s with %d shards diverged from reference", k.Name(), shards)
			}
		}
	}
}

// TestEngineReuseAcrossRuns checks the buffer-recycling path: one engine
// executing different kernels back to back must leave no state behind.
func TestEngineReuseAcrossRuns(t *testing.T) {
	g := graph.Uniform("uni", 500, 5, 7)
	src, _ := graph.HighestDegreeVertex(g)
	e := New(g, Config{Workers: 4})
	for round := 0; round < 2; round++ {
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, src, 100)
			got := e.Run(k, src, 100)
			assertBitIdentical(t, ref, got)
		}
	}
}

// TestEngineSmallGraphs covers degenerate shapes: a chain longer than any
// sensible shard count, a single vertex, a self-loop, and a vertex-free
// graph.
func TestEngineSmallGraphs(t *testing.T) {
	cases := []*graph.CSR{
		graph.FromEdges("chain", 5, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 3, Weight: 3}, {Src: 3, Dst: 4, Weight: 4}}),
		graph.FromEdges("lonely", 1, nil),
		graph.FromEdges("selfloop", 2, []graph.Edge{{Src: 0, Dst: 0, Weight: 9}, {Src: 0, Dst: 1, Weight: 2}}),
	}
	for _, g := range cases {
		for _, k := range algorithms.All() {
			ref := algorithms.RunReference(g, k, 0, 50)
			got := New(g, Config{Workers: 3}).Run(k, 0, 50)
			assertBitIdentical(t, ref, got)
		}
	}
	// A vertex-free graph: only the source-less kernels are defined on it.
	empty := graph.FromEdges("empty", 0, nil)
	for _, name := range []string{"pr", "cc"} {
		k, _ := algorithms.New(name)
		ref := algorithms.RunReference(empty, k, 0, 50)
		got := New(empty, Config{Workers: 3}).Run(k, 0, 50)
		assertBitIdentical(t, ref, got)
	}
}

// TestEngineMaxItersCap checks that a cap below convergence truncates the
// engine exactly where it truncates the reference.
func TestEngineMaxItersCap(t *testing.T) {
	g := graph.Kronecker("kron", 8, 8, 5)
	src, _ := graph.HighestDegreeVertex(g)
	for _, k := range algorithms.All() {
		for _, cap := range []int{0, 1, 2} {
			ref := algorithms.RunReference(g, k, src, cap)
			got := New(g, Config{Workers: 4}).Run(k, src, cap)
			assertBitIdentical(t, ref, got)
		}
	}
}

func TestTopK(t *testing.T) {
	g := graph.FromEdges("two-islands", 6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 3}, {Src: 1, Dst: 2, Weight: 5},
		{Src: 2, Dst: 0, Weight: 1}, {Src: 4, Dst: 5, Weight: 7},
	})
	cc, _ := algorithms.New("cc")
	res := New(g, Config{Workers: 2}).Run(cc, 0, 100)
	top, err := TopK("cc", res.Prop, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Component {0,1,2} (label 0, size 3), then {4,5} (label 4, size 2).
	want := []VertexScore{{Vertex: 0, Score: 3}, {Vertex: 4, Score: 2}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("cc top-2 = %+v, want %+v", top, want)
	}

	bfs, _ := algorithms.New("bfs")
	res = New(g, Config{Workers: 2}).Run(bfs, 0, 100)
	top, err = TopK("bfs", res.Prop, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Only the component of vertex 0 is reachable; vertices 3..5 excluded.
	want = []VertexScore{{Vertex: 0, Score: 0}, {Vertex: 1, Score: 1}, {Vertex: 2, Score: 2}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("bfs top = %+v, want %+v", top, want)
	}

	pr, _ := algorithms.New("pr")
	res = New(g, Config{Workers: 2}).Run(pr, 0, 40)
	top, err = TopK("pr", res.Prop, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("pr top-3 returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("pr ranking not descending: %+v", top)
		}
	}

	if _, err := TopK("nope", nil, 1); err == nil {
		t.Fatal("unknown kernel: want error")
	}
}
