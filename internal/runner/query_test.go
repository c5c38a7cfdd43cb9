package runner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

func TestQueryKeyCanonical(t *testing.T) {
	base := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	variants := []Query{
		{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -7},
		{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, MaxIters: 0},
	}
	for _, q := range variants {
		if q.Key() != base.Key() {
			t.Errorf("query %+v: key differs from canonical form", q)
		}
	}
	distinct := []Query{
		{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1},
		{Dataset: "SW", Kernel: "cc", Scale: graph.ScaleTiny, Src: -1},
		{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleSmall, Src: -1},
		{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: 3},
		{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, MaxIters: 7},
	}
	for _, q := range distinct {
		if q.Key() == base.Key() {
			t.Errorf("query %+v: key collides with %+v", q, base)
		}
	}
}

// TestRunQueryMatchesReference checks a served query is the reference
// result bit for bit, and that the second submission is a cache hit.
func TestRunQueryMatchesReference(t *testing.T) {
	r := New(2)
	q := Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: -1}
	res, _, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := algorithms.New("sssp")
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, q.canonical().MaxIters)
	if !reflect.DeepEqual(res.Prop, ref.Prop) || res.Iterations != ref.Iterations ||
		res.EdgeVisits != ref.EdgeVisits {
		t.Fatal("query result diverges from reference executor")
	}

	again, _, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("repeated query did not return the cached result")
	}
	// An out-of-range source aliases the default-source entry: RunQueryInfo
	// canonicalizes it against the built graph before keying.
	oor := q
	oor.Src = int64(g.V) + 12345
	if aliased, _, err := r.RunQueryInfo(context.Background(), oor); err != nil || aliased != res {
		t.Errorf("out-of-range src: res %p err %v, want cached %p", aliased, err, res)
	}
	if st := r.QueryStats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("query stats = %+v, want 2 hits / 1 miss", st)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("simulation stats touched by queries: %+v", st)
	}
}

// TestRunQueryConcurrentSingleFlight floods one query from many goroutines:
// exactly one execution, everyone gets the same pointer.
func TestRunQueryConcurrentSingleFlight(t *testing.T) {
	r := New(2)
	q := Query{Dataset: "UU", Kernel: "cc", Scale: graph.ScaleTiny, Src: -1}
	const n = 16
	results := make([]*algorithms.ReferenceResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := r.RunQueryInfo(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical queries returned different results")
		}
	}
	if st := r.QueryStats(); st.Misses != 1 {
		t.Errorf("query misses = %d, want 1", st.Misses)
	}
}

func TestRunQueryErrors(t *testing.T) {
	r := New(1)
	if _, _, err := r.RunQueryInfo(context.Background(), Query{Dataset: "SW", Kernel: "nope", Scale: graph.ScaleTiny}); err == nil {
		t.Error("unknown kernel: want error")
	}
	if _, _, err := r.RunQueryInfo(context.Background(), Query{Dataset: "NOPE", Kernel: "bfs", Scale: graph.ScaleTiny}); err == nil {
		t.Error("unknown dataset: want error")
	}
}
