package runner

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// storedQueries returns the query cache's resident entries.
func storedQueries(r *Runner) []*queryEntry {
	c := r.queries
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*queryEntry
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*stored[*queryEntry]).res)
	}
	return out
}

// checkBudget fails unless c's index and recency list hold the same entries,
// its byte count is their sum and that sum is within the budget.
func checkBudget(t *testing.T, c *resultCache[*queryEntry]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	n := 0
	for e := c.lru.Front(); e != nil; e = e.Next() {
		s := e.Value.(*stored[*queryEntry])
		if c.results[s.key] != e {
			t.Fatalf("listed key %.12s is not indexed", s.key)
		}
		sum += s.bytes
		n++
	}
	if n != len(c.results) || sum != c.bytes {
		t.Fatalf("%d listed entries of %d bytes, %d indexed, %d counted", n, sum, len(c.results), c.bytes)
	}
	if c.budget > 0 && c.bytes > c.budget {
		t.Fatalf("%d bytes resident, budget %d", c.bytes, c.budget)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestQueryCacheBoundedUnderKeySpread: queries from distinct sources, whose
// results sum to 12 budgets, leave at most a budget of results resident.
// The live heap stays within what the graph, its engine and the first
// result held, plus the budget and 2 MiB of slack for the runtime's and the
// engine's scratch; an unbounded cache would hold 11 more MiB.
func TestQueryCacheBoundedUnderKeySpread(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	g, err := r.Graph("UU", graph.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	result := 8 * uint64(g.V)
	r.queries.budget = 4 * result
	const queries, slack = 48, 2 << 20

	q := Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleSmall}
	if _, _, err := r.RunQueryInfo(ctx, q); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	for src := 1; src < queries; src++ {
		q.Src = int64(src)
		if _, info, err := r.RunQueryInfo(ctx, q); err != nil || info.Mode != "engine" {
			t.Fatalf("src %d: mode %q, err %v", src, info.Mode, err)
		}
		checkBudget(t, r.queries)
		if h := liveHeap(); h > base+r.queries.budget+slack {
			t.Fatalf("after %d distinct queries the live heap is %d bytes, %d above the first query's", src+1, h, h-base)
		}
	}
	st := r.QueryStats()
	if st.Bytes != 4*result || st.Evicted != queries-4 {
		t.Fatalf("%d bytes resident and %d evicted, want %d and %d", st.Bytes, st.Evicted, 4*result, queries-4)
	}
	if got := queries * result; got < 10*r.queries.budget {
		t.Fatalf("the queries' results sum to %d bytes, under 10 budgets", got)
	}
}

// TestQueryCacheLRU: a working set that fits the budget is never evicted, a
// hit refreshes its key, the least recently used key is the one an overflow
// evicts, and a result larger than the budget is served but not kept.
func TestQueryCacheLRU(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	g, err := r.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	result := 8 * uint64(g.V)
	r.queries.budget = 3 * result
	query := func(src int64, want string) {
		t.Helper()
		q := Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: src}
		if _, info, err := r.RunQueryInfo(ctx, q); err != nil || info.Mode != want {
			t.Fatalf("src %d: mode %q, err %v; want %q", src, info.Mode, err, want)
		}
		checkBudget(t, r.queries)
	}
	const a, b, c, d = 10, 11, 12, 13
	for _, src := range []int64{a, b, c} {
		query(src, "engine")
	}
	for range 3 { // exactly the budget: every repeat hits
		for _, src := range []int64{a, b, c} {
			query(src, "cached")
		}
	}
	if st := r.QueryStats(); st.Evicted != 0 || st.Bytes != 3*result {
		t.Fatalf("working set at the budget: %d evicted, %d bytes", st.Evicted, st.Bytes)
	}
	query(a, "cached") // recency now a, c, b
	query(d, "engine") // overflows by one result: b goes
	if st := r.QueryStats(); st.Evicted != 1 {
		t.Fatalf("one overflow evicted %d entries", st.Evicted)
	}
	query(a, "cached")
	query(c, "cached")
	query(d, "cached")
	query(b, "engine")

	r = New(2)
	r.queries.budget = result - 1
	query(a, "engine")
	query(a, "engine")
	if st := r.QueryStats(); st.Bytes != 0 || st.Evicted != 0 {
		t.Fatalf("an oversized result left %d bytes resident, %d evicted", st.Bytes, st.Evicted)
	}
}

// TestQueryCacheEvictionRace races hits, stores, evictions and update
// invalidations on one budgeted cache (CI runs it with -race -count=10):
// readers repeat a few keys of a static graph and spread sources over it,
// while updates move a second graph its readers query. Every static answer
// equals its reference run, and once the updates have returned the cache is
// within its budget and holds no result of a superseded version.
func TestQueryCacheEvictionRace(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	static, err := r.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	r.queries.budget = 6 * 8 * uint64(static.V)
	const sources, versions = 24, 5
	truth := make([][]uint64, sources)
	for src := range truth {
		truth[src] = reference(t, static, Query{Dataset: "UU", Kernel: "bfs", Src: int64(src)}).Prop
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	reader := func(next func(i int) Query) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i >= sources { // enough to have spread past the budget
					return
				}
			default:
			}
			q := next(i)
			res, _, err := r.RunQueryInfo(ctx, q)
			if err != nil {
				t.Error(err)
				return
			}
			if q.Dataset == "UU" && !slices.Equal(res.Prop, truth[q.Src]) {
				t.Errorf("bfs from %d diverges from its reference", q.Src)
				return
			}
		}
	}
	wg.Add(4)
	go reader(func(i int) Query {
		return Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: int64(i % 3)}
	})
	go reader(func(i int) Query {
		return Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: int64(3 + i%(sources-3))}
	})
	go reader(func(i int) Query {
		return Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: int64(sources - 1 - i%sources)}
	})
	go reader(func(i int) Query {
		return Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: int64(i % 4)}
	})
	for v := 1; v <= versions; v++ {
		if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: uint32(v), Weight: 1}}); err != nil {
			t.Error(err)
			break
		}
		if _, _, err := r.RunQueryInfo(ctx, Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: 0}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	checkBudget(t, r.queries)
	for _, e := range storedQueries(r) {
		if e.graph.seg == nil && e.version != e.graph.version() {
			t.Errorf("a version-%d result outlived its graph's version %d", e.version, e.graph.version())
		}
	}
	if st := r.QueryStats(); st.Evicted == 0 || st.Invalidated == 0 {
		t.Errorf("%d evicted, %d invalidated: the race drove neither", st.Evicted, st.Invalidated)
	}
}
