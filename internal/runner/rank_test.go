package runner

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

// freshTop ranks prop from scratch — what the serving path returned for every
// request before rankings were kept with cache entries.
func freshTop(t testing.TB, kernel string, prop []uint64, k int) []engine.VertexScore {
	t.Helper()
	kn, err := algorithms.New(kernel)
	if err != nil {
		t.Fatal(err)
	}
	top, err := engine.TopKRanked(kn.Descriptor(), prop, k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// rankOnce asks info for its top-k and checks the answer is exactly a fresh
// ranking (nil-ness included: it decides between "top":null and "top":[] on
// the wire), capacity-clipped, and produced the way the caller expects ("" to
// not care).
func rankOnce(t *testing.T, r *Runner, kernel string, res *algorithms.ReferenceResult, info QueryInfo, k int, wantHow string) {
	t.Helper()
	before := r.RankStats()
	top, how, err := info.TopK(k)
	if err != nil {
		t.Fatalf("%s TopK(%d): %v", kernel, k, err)
	}
	if want := freshTop(t, kernel, res.Prop, k); !reflect.DeepEqual(top, want) {
		t.Fatalf("%s TopK(%d) (%s) differs from a fresh ranking:\n got %v\nwant %v", kernel, k, how, top, want)
	}
	if cap(top) != len(top) {
		t.Fatalf("%s TopK(%d): cap %d != len %d — an append would write into the shared ranking", kernel, k, cap(top), len(top))
	}
	if wantHow != "" && how != wantHow {
		t.Fatalf("%s TopK(%d) was %s, want %s", kernel, k, how, wantHow)
	}
	after := r.RankStats()
	memo, computed := after.Memo-before.Memo, after.Computed-before.Computed
	if (how == RankMemo && (memo != 1 || computed != 0)) || (how == RankComputed && (memo != 0 || computed != 1)) {
		t.Fatalf("%s TopK(%d) reported %s but counted memo +%d, computed +%d", kernel, k, how, memo, computed)
	}
	if after.Count != before.Count+1 {
		t.Fatalf("rank latency count %d -> %d, want one observation", before.Count, after.Count)
	}
}

// TestRankMemoDifferential drives every kernel's ranking through the cached
// entry in k orders that grow, shrink and overshoot the vertex count, on a
// sparse proxy whose BFS levels, coreness classes, zero-in-degree PageRank
// floor and component sizes tie heavily. Every answer must equal a fresh
// engine.TopKRanked of the same vector, and asking twice must not rank twice.
func TestRankMemoDifferential(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	g, err := r.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	over := int(g.V) + 5
	orders := [][]int{{1, 10, 1000}, {1000, 10, 1}, {10, over, 3}, {0, 7, 0}}
	kernels := algorithms.Names()
	if len(kernels) < 8 {
		t.Fatalf("registry holds %v, want the eight kernels", kernels)
	}
	for _, kernel := range kernels {
		for _, order := range orders {
			r.ResetCache() // a fresh entry per order
			q := Query{Dataset: "UU", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1}
			if _, _, err := r.RunQueryInfo(ctx, q); err != nil {
				t.Fatal(err)
			}
			// Rank through a cache hit: the memo belongs to the entry, not to
			// the call that created it.
			res, info, err := r.RunQueryInfo(ctx, q)
			if err != nil || info.Mode != "cached" {
				t.Fatalf("%s: repeat served as %+v (err %v), want a cache hit", kernel, info, err)
			}
			for i, k := range order {
				how := ""
				if i == 0 {
					how = RankComputed
				}
				rankOnce(t, r, kernel, res, info, k, how)
				rankOnce(t, r, kernel, res, info, k, RankMemo)
			}
			// A third hit on the entry finds the ranking the loop left behind.
			_, again, err := r.RunQueryInfo(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			rankOnce(t, r, kernel, res, again, order[len(order)-1], RankMemo)
		}
	}

	// The shapes the orders above rely on, spelled out on one kernel: a
	// shrinking k is a prefix; a growing k on a full ranking recomputes; a
	// ranking shorter than its k is exhaustive and answers anything.
	r.ResetCache()
	q := Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	res, info, err := r.RunQueryInfo(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		k   int
		how string
	}{
		{10, RankComputed}, {3, RankMemo}, {10, RankMemo}, {11, RankComputed},
		{over, RankComputed}, {over + 100, RankMemo}, {1, RankMemo}, {0, RankMemo},
	} {
		rankOnce(t, r, "bfs", res, info, step.k, step.how)
	}
	if _, _, err := info.TopK(-1); err == nil {
		t.Error("TopK(-1): want an error")
	}
	if _, _, err := (QueryInfo{}).TopK(3); err == nil {
		t.Error("TopK on a failed query's info: want an error")
	}
}

// TestRankStoredAndDynamicArms checks the other two arms build the same kind
// of entry: a stored segment's hit and an updated graph's hit both serve a
// memoized ranking, and an update drops the ranking with the entry.
func TestRankStoredAndDynamicArms(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	defer r.CloseStored()
	g := graph.Uniform("stored-rank", 400, 3, 9)
	if _, err := r.OpenStored(writeTestSegment(t, t.TempDir(), g)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Dataset: "stored-rank", Kernel: "kcore", Src: -1},
		{Dataset: "stored-rank", Kernel: "cc", Src: -1},
	} {
		res, info, err := r.RunQueryInfo(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rankOnce(t, r, q.Kernel, res, info, 20, RankComputed)
		res, info, err = r.RunQueryInfo(ctx, q)
		if err != nil || info.Mode != "cached" {
			t.Fatalf("stored repeat: %+v, %v", info, err)
		}
		rankOnce(t, r, q.Kernel, res, info, 5, RankMemo)
	}

	q := Query{Dataset: "UU", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 3}
	for version := uint64(1); version <= 3; version++ {
		batch := []stream.EdgeUpdate{{Src: 3, Dst: uint32(100 * version), Weight: 1}}
		if _, err := r.ApplyUpdates(ctx, "UU", graph.ScaleTiny, batch); err != nil {
			t.Fatal(err)
		}
		res, info, err := r.RunQueryInfo(ctx, q)
		if err != nil || info.Version != version || info.Mode == "cached" {
			t.Fatalf("version %d: %+v, %v", version, info, err)
		}
		// The previous version's entry went with the update, ranking and all:
		// this one starts without a memo.
		rankOnce(t, r, "sssp", res, info, 50, RankComputed)
		res, info, err = r.RunQueryInfo(ctx, q)
		if err != nil || info.Mode != "cached" {
			t.Fatalf("version %d repeat: %+v, %v", version, info, err)
		}
		rankOnce(t, r, "sssp", res, info, 50, RankMemo)
	}
}

// TestRankUncachedResults covers the two results no cache entry holds: a
// traced run, and a dynamic run that landed on a newer version than the key it
// was looked up under. Both rank through the same call with an entry nobody
// else sees, and neither leaves a ranking where a later lookup could find it.
func TestRankUncachedResults(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	q := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: 1}

	// Warm the cached entry's memo at k=4, then trace: the traced result must
	// rank its own vector, not borrow the cached entry's ranking.
	res, info, err := r.RunQueryInfo(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rankOnce(t, r, "bfs", res, info, 4, RankComputed)
	tr := obs.NewTrace()
	tres, tinfo, err := r.RunQueryInfo(ctx, q, tr)
	if err != nil || len(tr.Spans()) == 0 {
		t.Fatalf("traced: %v (spans %v)", err, tr.Spans())
	}
	rankOnce(t, r, "bfs", tres, tinfo, 4, RankComputed)
	rankOnce(t, r, "bfs", tres, tinfo, 2, RankMemo)

	// Version race, made deterministic: stamp the query with version 1, move
	// the graph to version 2, then execute — what happens when an update lands
	// between RunQueryInfo's resolve and the dynamic engine's lock.
	if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 1, Dst: 900, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	res1, info1, err := r.RunQueryInfo(ctx, q)
	if err != nil || info1.Version != 1 {
		t.Fatalf("version 1: %+v, %v", info1, err)
	}
	rankOnce(t, r, "bfs", res1, info1, 1000, RankComputed)
	stale := q
	qg, err := r.resolve(&stale)
	if err != nil || stale.Version != 1 {
		t.Fatalf("resolve: stamped version %d, %v", stale.Version, err)
	}
	if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 1, Dst: 901, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	entry, mode, err := r.execQuery(ctx, stale, qg, nil)
	res2, rinfo := entry.res, QueryInfo{Key: stale.Key(), Version: entry.version, Mode: mode, entry: entry}
	if err != nil || rinfo.Version != 2 || entry.version != 2 {
		t.Fatalf("raced execution: %+v (entry at version %d), %v", rinfo, entry.version, err)
	}
	if reflect.DeepEqual(res1.Prop, res2.Prop) {
		t.Fatal("the second update did not change the result; the race below would prove nothing")
	}
	// Its ranking is version 2's, never the one kept under version 1's key.
	rankOnce(t, r, "bfs", res2, rinfo, 1000, RankComputed)
	cur, err := r.CurrentGraph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	kn, _ := algorithms.New("bfs")
	ref := algorithms.RunReference(cur, kn, 1, stale.MaxIters)
	top, _, err := rinfo.TopK(1000)
	if err != nil || !reflect.DeepEqual(top, freshTop(t, "bfs", ref.Prop, 1000)) {
		t.Fatalf("raced result's ranking is not the current graph's (err %v)", err)
	}
}

// TestRankConcurrentMemo hammers one cached key with mixed k from eight
// goroutines while a second graph's entries are invalidated by updates under
// two more readers (CI runs it with -race -count=10). The steady key's answers
// must always be the one true ranking's prefix — whichever racing computation
// published the memo — and every answer on the moving graph must be the
// ranking of the version it says it was computed on, so a ranking can never
// outlive its entry into a newer version's key.
func TestRankConcurrentMemo(t *testing.T) {
	ctx := context.Background()
	r := New(2)
	steady := Query{Dataset: "UU", Kernel: "kcore", Scale: graph.ScaleTiny, Src: -1}
	moving := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: 1}
	const versions = 6

	res, _, err := r.RunQueryInfo(ctx, steady)
	if err != nil {
		t.Fatal(err)
	}
	steadyTruth := freshTop(t, "kcore", res.Prop, len(res.Prop)+1)

	// The moving graph's truth per version, computed offline: each batch
	// gives the BFS source a new direct neighbor, so every version ranks
	// differently.
	base, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	bfs, _ := algorithms.New("bfs")
	edges := base.Edges()
	batches := make([][]stream.EdgeUpdate, versions)
	movingTruth := make([][]engine.VertexScore, versions+1)
	for v := 0; v <= versions; v++ {
		if v > 0 {
			e := stream.EdgeUpdate{Src: 1, Dst: base.V - uint32(v), Weight: 1}
			batches[v-1] = []stream.EdgeUpdate{e}
			edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		}
		gv := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		ref := algorithms.RunReference(gv, bfs, 1, moving.canonical().MaxIters)
		movingTruth[v] = freshTop(t, "bfs", ref.Prop, int(base.V))
		if v > 0 && reflect.DeepEqual(movingTruth[v], movingTruth[v-1]) {
			t.Fatalf("version %d ranks like version %d; pick edges that move the ranking", v, v-1)
		}
	}

	check := func(q Query, k int, truth func(version uint64) []engine.VertexScore) {
		_, info, err := r.RunQueryInfo(ctx, q)
		if err != nil {
			t.Error(err)
			return
		}
		top, _, err := info.TopK(k)
		if err != nil {
			t.Error(err)
			return
		}
		want := truth(info.Version)
		want = want[:min(k, len(want))]
		if !slices.Equal(top, want) {
			t.Errorf("%s on %s: top-%d served at version %d is not that version's ranking", q.Kernel, q.Dataset, k, info.Version)
		}
	}
	ks := []int{1, 10, 1000, 3, len(res.Prop) + 5, 250}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				check(steady, ks[(i+w)%len(ks)], func(uint64) []engine.VertexScore { return steadyTruth })
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				check(moving, ks[(i+w)%len(ks)], func(v uint64) []engine.VertexScore { return movingTruth[v] })
			}
		}(w)
	}
	for v := 1; v <= versions; v++ {
		if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, batches[v-1]); err != nil {
			t.Error(err) // not Fatal: the readers below must be stopped and waited for
			break
		}
		// The writer reads too: right after the update the old entry is gone
		// and the key is new, so this is never a memo of the previous version.
		check(moving, 1000, func(v uint64) []engine.VertexScore { return movingTruth[v] })
		check(moving, 5, func(v uint64) []engine.VertexScore { return movingTruth[v] })
	}
	close(done)
	wg.Wait()
	if got := r.GraphVersion("SW", graph.ScaleTiny); got != versions {
		t.Fatalf("moving graph ended at version %d, want %d", got, versions)
	}
}
