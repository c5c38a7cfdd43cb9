package stream

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// streamBenchGraph is shared across the package's benchmarks: a power-law
// Kronecker graph big enough that incremental repair's advantage over full
// recompute is visible (2^16 vertices, ~1M edges), built once per binary.
var streamBenchGraph = sync.OnceValue(func() *graph.CSR {
	return graph.Kronecker("KN16", 16, 16, 42)
})

// benchBatches pre-draws deterministic update batches so the timed loop
// does no RNG work.
func benchBatches(v uint32, n, size int) [][]EdgeUpdate {
	rng := rand.New(rand.NewSource(7))
	out := make([][]EdgeUpdate, n)
	for i := range out {
		out[i] = randomBatch(rng, v, size)
	}
	return out
}

// BenchmarkApplyUpdates measures pure update ingestion (64-edge batches,
// no queries, compaction at the default threshold).
func BenchmarkApplyUpdates(b *testing.B) {
	g := streamBenchGraph()
	d := New(g, Config{Workers: 1})
	batches := benchBatches(g.V, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ApplyUpdates(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalBFS measures one update batch plus the incremental
// repair of a converged BFS fixed point — the streaming steady state.
func BenchmarkIncrementalBFS(b *testing.B) {
	g := streamBenchGraph()
	d := New(g, Config{Workers: 1})
	if _, _, err := d.QueryCtx(context.Background(), "bfs", -1, 0); err != nil { // converge once
		b.Fatal(err)
	}
	batches := benchBatches(g.V, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ApplyUpdates(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.QueryCtx(context.Background(), "bfs", -1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRecomputeBFS is the from-scratch baseline the incremental
// path is compared against: a full parallel-engine run per batch on the
// same graph (engine prebuilt — the cheapest possible full recompute, so
// the reported incremental speedup is conservative).
func BenchmarkFullRecomputeBFS(b *testing.B) {
	g := streamBenchGraph()
	e := engine.New(g, engine.Config{Workers: 1})
	k, err := algorithms.New("bfs")
	if err != nil {
		b.Fatal(err)
	}
	src, _ := graph.HighestDegreeVertex(g)
	e.Run(k, src, engine.DefaultMaxIters) // warm buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(k, src, engine.DefaultMaxIters)
	}
}

// BenchmarkVersionStepFullRun measures what a full recompute pays to bring
// its engine to a moved graph: one 8-edge batch plus a query at a non-default
// cap — the cap keeps it on the full path and out of the memo — with the
// query's "index" span (the engine's Advance: touched pull tiles and row
// chunks) and the time inside ApplyUpdates reported beside the total. pr,
// capped at two iterations, is the traffic of lp/pr/ppr readers on a streamed
// graph, which no repair serves. bfs and cc run to convergence.
func BenchmarkVersionStepFullRun(b *testing.B) {
	for _, c := range []struct {
		kernel   string
		maxIters int
	}{{"pr", 2}, {"bfs", engine.DefaultMaxIters - 1}, {"cc", engine.DefaultMaxIters - 1}} {
		b.Run(c.kernel, func(b *testing.B) { benchVersionStep(b, c.kernel, c.maxIters) })
	}
}

func benchVersionStep(b *testing.B, kernel string, maxIters int) {
	g := streamBenchGraph()
	d := New(g, Config{Workers: 1})
	if _, _, err := d.QueryCtx(context.Background(), kernel, -1, maxIters); err != nil { // build the engine and its pull index
		b.Fatal(err)
	}
	batches := benchBatches(g.V, 128, 8) // under the compaction threshold: every step carries
	var applyNS, indexNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := d.ApplyUpdates(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		applyNS += int64(time.Since(t0))
		tr := obs.NewTrace()
		if _, _, err := d.QueryCtx(context.Background(), kernel, -1, maxIters, engine.RunOptions{Trace: tr}); err != nil {
			b.Fatal(err)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "index" {
				indexNS += sp.DurNS
			}
		}
	}
	b.ReportMetric(float64(applyNS)/float64(b.N)/1e3, "apply-us/op")
	b.ReportMetric(float64(indexNS)/float64(b.N)/1e6, "index-ms/op")
}
