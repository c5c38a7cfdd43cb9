package runner

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// reference is a from-scratch run of q's kernel on g, with the source and
// iteration cap the runner resolves for q.
func reference(t *testing.T, g *graph.CSR, q Query) *algorithms.ReferenceResult {
	t.Helper()
	k, err := algorithms.New(q.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	src := algorithms.ResolveSource(k.Descriptor(), q.Src, g.V, func() uint32 {
		s, _ := graph.HighestDegreeVertex(g)
		return s
	})
	return algorithms.RunReference(g, k, src, q.canonical().MaxIters)
}

// TestPromotionReleasesStaticEngine: a graph's first update replaces its
// static engine with the DynamicEngine, so the version-0 engine — which no
// query can reach again — is released, not kept for the life of the process.
// Queries on the promoted graph still equal a reference run on CurrentGraph.
func TestPromotionReleasesStaticEngine(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	q := Query{Dataset: "TW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	if _, info, err := r.RunQueryInfo(ctx, q); err != nil || info.Mode != "engine" {
		t.Fatalf("static query: mode %q, err %v", info.Mode, err)
	}
	e := r.lookup(graphKey{name: "TW", scale: graph.ScaleTiny})
	e.mu.Lock()
	eng := weak.Make(e.static)
	e.mu.Unlock()
	if _, err := r.ApplyUpdates(ctx, "TW", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	held := e.static != nil
	e.mu.Unlock()
	if held {
		t.Fatal("promoted graph still holds its static engine")
	}
	runtime.GC()
	runtime.GC() // a second cycle clears what sync.Pool victim caches kept
	if eng.Value() != nil {
		t.Fatal("static engine still reachable after promotion")
	}
	cur, err := r.CurrentGraph("TW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"bfs", "sssp", "cc", "kcore"} {
		q.Kernel = kernel
		res, info, err := r.RunQueryInfo(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != 1 {
			t.Fatalf("%s: served version %d, want 1", kernel, info.Version)
		}
		if ref := reference(t, cur, q); !slices.Equal(res.Prop, ref.Prop) {
			t.Fatalf("%s (%s): diverges from the reference on the current graph", kernel, info.Mode)
		}
	}
}

// TestEngineIndexBytes: the piccolo_engine_index_bytes gauge sums what the
// resident engines own — nothing before a query, the static engine's index
// after one, nothing while a promoted graph has no full-run engine, and that
// engine's index once a full run builds it.
func TestEngineIndexBytes(t *testing.T) {
	ctx := context.Background()
	r := New(1)
	if n := r.engineIndexBytes(); n != 0 {
		t.Fatalf("%d index bytes before any query", n)
	}
	q := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	if _, _, err := r.RunQueryInfo(ctx, q); err != nil {
		t.Fatal(err)
	}
	e := r.lookup(graphKey{name: "SW", scale: graph.ScaleTiny})
	if n := r.engineIndexBytes(); n == 0 || n != e.static.IndexBytes() {
		t.Fatalf("%d index bytes after a static query, want the engine's %d", n, e.static.IndexBytes())
	}
	if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if n := r.engineIndexBytes(); n != 0 {
		t.Fatalf("%d index bytes after promotion, before any full run", n)
	}
	q.Kernel = "pr" // no repair: a full run
	if _, info, err := r.RunQueryInfo(ctx, q); err != nil || info.Mode != "full" {
		t.Fatalf("pr after an update: mode %q, err %v", info.Mode, err)
	}
	if n := r.engineIndexBytes(); n == 0 || n != r.StreamStats().IndexBytes {
		t.Fatalf("%d index bytes after a full run, stream stats say %d", n, r.StreamStats().IndexBytes)
	}
}

// TestPromotionRacesStaticQueries: static queries racing a graph's first
// update each answer bit-identically to a reference run at the version they
// report, and once the update has returned no version-0 result stays in the
// query cache.
func TestPromotionRacesStaticQueries(t *testing.T) {
	ctx := context.Background()
	batch := []stream.EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}, {Src: 5, Dst: 1, Weight: 7}}
	kernels := []string{"bfs", "sssp", "cc"}
	for round := range 4 {
		r := New(2)
		base, err := r.Graph("SW", graph.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		edges := base.Edges()
		for _, u := range batch {
			edges = append(edges, graph.Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight})
		}
		versions := []*graph.CSR{base, graph.FromEdges(base.Name, base.V, edges)}

		type answer struct {
			q    Query
			res  *algorithms.ReferenceResult
			info QueryInfo
		}
		answers := make(chan answer, 4*len(kernels))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range cap(answers) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				q := Query{Dataset: "SW", Kernel: kernels[i%len(kernels)], Scale: graph.ScaleTiny, Src: -1}
				res, info, err := r.RunQueryInfo(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				answers <- answer{q, res, info}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, batch); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		close(answers)
		for a := range answers {
			if a.info.Version > 1 {
				t.Fatalf("round %d: %s served version %d", round, a.q.Kernel, a.info.Version)
			}
			if ref := reference(t, versions[a.info.Version], a.q); !slices.Equal(a.res.Prop, ref.Prop) {
				t.Fatalf("round %d: %s (%s) at version %d diverges from the reference",
					round, a.q.Kernel, a.info.Mode, a.info.Version)
			}
		}

		e := r.lookup(graphKey{name: "SW", scale: graph.ScaleTiny})
		e.mu.Lock()
		static := e.static
		e.mu.Unlock()
		if static != nil {
			t.Errorf("round %d: promoted graph still holds a static engine", round)
		}
		for _, entry := range storedQueries(r) {
			if entry.version != 1 {
				t.Errorf("round %d: a version-%d result outlived the update", round, entry.version)
			}
		}
	}
}
