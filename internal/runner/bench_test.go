package runner

import (
	"context"
	"math/rand"
	"testing"

	"piccolo/internal/core"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// BenchmarkSweepCached measures the runner's steady serving state: a sweep
// whose cells are all already cached. This is the hot path of piccolo-serve
// under repeated clients and of the figure suite's overlapping figures —
// pure key hashing plus cache lookups, no simulation.
func BenchmarkSweepCached(b *testing.B) {
	r := New(2)
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Dataset: "UU", Config: core.Config{
			Kernel: "bfs", Scale: graph.ScaleTiny, MaxIters: 1 + i%2, Src: -1,
		}}
	}
	if _, err := r.Sweep(context.Background(), jobs); err != nil { // warm: simulate the 2 distinct cells
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Sweep(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCached measures a fully cached RunQueryInfo round trip —
// the versioned key derivation (stream version lookup included) plus the
// single-flight cache hit.
func BenchmarkQueryCached(b *testing.B) {
	r := New(2)
	q := Query{Dataset: "UU", Kernel: "cc", Scale: graph.ScaleTiny, Src: -1}
	if _, _, err := r.RunQueryInfo(context.Background(), q); err != nil { // warm: one real execution
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.RunQueryInfo(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyUpdatesRunner measures the update path through the runner:
// batch apply plus targeted query-cache invalidation.
func BenchmarkApplyUpdatesRunner(b *testing.B) {
	r := New(2)
	g, err := r.Graph("UU", graph.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	updates := make([]stream.EdgeUpdate, 64)
	for i := range updates {
		updates[i] = stream.EdgeUpdate{
			Src:    uint32(rng.Intn(int(g.V))),
			Dst:    uint32(rng.Intn(int(g.V))),
			Weight: uint8(1 + rng.Intn(255)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ApplyUpdates(context.Background(), "UU", graph.ScaleTiny, updates); err != nil {
			b.Fatal(err)
		}
	}
}
