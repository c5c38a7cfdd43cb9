package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// benchGraph is a Kronecker power-law graph big enough that the parallel
// engine's speedup over the serial reference is measurable: 2^16 vertices,
// ~1M edges. Built once per test binary.
var benchGraph = sync.OnceValue(func() *graph.CSR {
	return graph.Kronecker("KN16", 16, 16, 42)
})

// benchKernel runs one executor variant: workers == 0 selects the serial
// reference loop, workers > 0 the sharded parallel engine with its sparse
// supersteps pinned to dir.
func benchKernel(b *testing.B, kernel string, maxIters, workers int, dir Direction) {
	g := benchGraph()
	k, err := algorithms.New(kernel)
	if err != nil {
		b.Fatal(err)
	}
	// Descriptor-driven defaults, exactly like the query path: maxIters 0
	// selects the kernel's own cap, and the source resolves per its role
	// (highest-degree vertex for traversals, the default parameter for
	// kcore, ignored for pr/cc/lp).
	maxIters = algorithms.EffectiveMaxIters(k.Descriptor(), maxIters, DefaultMaxIters)
	src := algorithms.ResolveSource(k.Descriptor(), -1, g.V, func() uint32 {
		hd, _ := graph.HighestDegreeVertex(g)
		return hd
	})
	var edges uint64
	if workers == 0 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges = algorithms.RunReference(g, k, src, maxIters).EdgeVisits
		}
	} else {
		e := New(g, Config{Workers: workers})
		edges = runDir(b, e, k, src, maxIters, dir).EdgeVisits // warm: builds sub-CSRs/CSC tiles + buffers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges = runDir(b, e, k, src, maxIters, dir).EdgeVisits
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	}
}

// benchDirections emits the per-direction sub-benchmark grid: parallel-N
// is the production default (auto direction switching), and for frontier
// kernels push-N and pull-N pin each pure strategy so every path is timed
// separately — an auto-mode win must not hide a pure-path regression.
// AllActive kernels always pull, so they have no pinned rows.
func benchDirections(b *testing.B, kernel string, maxIters int) {
	k, err := algorithms.New(kernel)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) { benchKernel(b, kernel, maxIters, 0, DirAuto) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("parallel-"+strconv.Itoa(w), func(b *testing.B) { benchKernel(b, kernel, maxIters, w, DirAuto) })
		if k.Descriptor().AllActive {
			continue
		}
		b.Run("push-"+strconv.Itoa(w), func(b *testing.B) { benchKernel(b, kernel, maxIters, w, DirPush) })
		b.Run("pull-"+strconv.Itoa(w), func(b *testing.B) { benchKernel(b, kernel, maxIters, w, DirPull) })
	}
}

// BenchmarkEnginePR compares serial vs parallel PageRank (dense mode) on
// the Kronecker graph across traversal directions; `go test -bench
// EnginePR ./internal/engine` shows the speedup per worker count.
func BenchmarkEnginePR(b *testing.B) {
	benchDirections(b, "pr", 10)
}

// BenchmarkEngineBFS compares serial vs parallel BFS (sparse mode) run to
// completion from the highest-degree vertex across traversal directions.
func BenchmarkEngineBFS(b *testing.B) {
	benchDirections(b, "bfs", DefaultMaxIters)
}

// BenchmarkEngineLP benchmarks label propagation — frontier-driven like
// BFS but non-monotone, bounded at its descriptor's round cap.
func BenchmarkEngineLP(b *testing.B) {
	benchDirections(b, "lp", 0) // 0 → the descriptor's default cap
}

// BenchmarkEngineKCore benchmarks k-core peeling: an all-active
// iterate-to-fixpoint kernel whose per-iteration cost is the whole edge
// set until the death cascade settles.
func BenchmarkEngineKCore(b *testing.B) {
	benchDirections(b, "kcore", DefaultMaxIters)
}

// BenchmarkEnginePPR benchmarks personalized PageRank (dense mode, PPR
// fast path) at the same iteration budget as the pr benchmark.
func BenchmarkEnginePPR(b *testing.B) {
	benchDirections(b, "ppr", 10)
}

// sparseBenchGraph has the shape of the benchmark's stored graph (bench/
// serve-cold's kn17): 2^17 vertices, ~2.1M edges, power-law.
var sparseBenchGraph = sync.OnceValue(func() *graph.CSR {
	return graph.Kronecker("KN17", 17, 16, 1717)
})

// benchSSSP runs sssp to completion from the highest-degree vertex on one
// warm engine over st: every direction × phase widths 1 and 2, the widths a
// query gets from a loaded and an idle two-slot pool. auto exercises the
// masked pull fold in the fat middle and the thin push path — scatter-gather
// on a CSR, the frontier walk over the sub-CSRs on a segment — at both ends;
// push and pull pin each alone.
func benchSSSP(b *testing.B, st graph.GraphStore) {
	k, err := algorithms.New("sssp")
	if err != nil {
		b.Fatal(err)
	}
	src, _ := graph.HighestDegreeVertexStore(st)
	for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
		e := NewFromStore(st, Config{Workers: 2})
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s-%d", dir, width), func(b *testing.B) {
				opts := forceDir(dir)
				opts.Workers = width
				run := func() uint64 {
					res, err := e.RunCtx(context.Background(), k, src, DefaultMaxIters, opts)
					if err != nil {
						b.Fatal(err)
					}
					return res.EdgeVisits
				}
				edges := run() // warm: builds sub-CSRs/CSC tiles + buffers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					edges = run()
				}
				b.StopTimer()
				b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
			})
		}
	}
}

// BenchmarkEngineSSSP benchmarks the sparse superstep paths on the in-RAM
// CSR.
func BenchmarkEngineSSSP(b *testing.B) {
	benchSSSP(b, graph.AsStore(sparseBenchGraph()))
}

// BenchmarkEngineStoreSSSP is BenchmarkEngineSSSP over the mmap'd segment of
// the same graph: the engine reads the segment to build its indexes and
// every timed run traverses those.
func BenchmarkEngineStoreSSSP(b *testing.B) {
	path := filepath.Join(b.TempDir(), "kn17.pseg")
	if err := sparseBenchGraph().WriteSegmentFile(path); err != nil {
		b.Fatal(err)
	}
	seg, err := graph.OpenSegment(path)
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	benchSSSP(b, seg)
}

// BenchmarkTopK ranks one converged property vector per kernel shape — the
// cost every uncached /query pays once and a cached one never (the runner
// keeps the ranking with the result): min- and max-ordered scores, a vector
// where most vertices tie (kcore) and a label histogram (cc).
func BenchmarkTopK(b *testing.B) {
	g := benchGraph()
	e := New(g, Config{Workers: 2})
	for _, kernel := range []string{"bfs", "pr", "sswp", "kcore", "cc"} {
		k, err := algorithms.New(kernel)
		if err != nil {
			b.Fatal(err)
		}
		d := k.Descriptor()
		src := algorithms.ResolveSource(d, -1, g.V, func() uint32 {
			hd, _ := graph.HighestDegreeVertex(g)
			return hd
		})
		prop := e.Run(k, src, algorithms.EffectiveMaxIters(d, 0, DefaultMaxIters)).Prop
		b.Run(kernel, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TopKRanked(d, prop, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
