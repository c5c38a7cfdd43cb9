package stream

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// testGraphs returns the three base graph families of the differential
// suite: uniform random, power-law Kronecker and small-world.
func testGraphs() []*graph.CSR {
	return []*graph.CSR{
		graph.Uniform("uniform", 300, 4, 11),
		graph.Kronecker("kron", 8, 8, 12),
		graph.WattsStrogatz("ws", 256, 4, 0.2, 13),
	}
}

// allKernels is every registered kernel: the differential suite runs the
// full registry, so a kernel landing through the capability API is held to
// the same bit-identical post-update bar as the paper's five.
var allKernels = algorithms.Names()

// randomBatch draws n random edge insertions over [0, v).
func randomBatch(rng *rand.Rand, v uint32, n int) []EdgeUpdate {
	batch := make([]EdgeUpdate, n)
	for i := range batch {
		batch[i] = EdgeUpdate{
			Src:    uint32(rng.Intn(int(v))),
			Dst:    uint32(rng.Intn(int(v))),
			Weight: uint8(1 + rng.Intn(255)),
		}
	}
	return batch
}

// asEdges converts updates to graph edges.
func asEdges(batch []EdgeUpdate) []graph.Edge {
	out := make([]graph.Edge, len(batch))
	for i, e := range batch {
		out[i] = graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	return out
}

// checkQuery runs one kernel through the dynamic engine and through the
// serial reference on the materialized post-update graph, and requires
// bit-identical properties.
func checkQuery(t *testing.T, d *DynamicEngine, refG *graph.CSR, kernel string) QueryInfo {
	t.Helper()
	return checkQueryAt(t, d, refG, kernel, 0)
}

// checkFullQuery is checkQuery on the full-run path: a kernel with a repair
// is queried at an explicit cap one below the default — a run on these
// graphs converges long before it, and an explicit cap always runs in full
// and stays out of the memo — and a full-recompute kernel at its default.
func checkFullQuery(t *testing.T, d *DynamicEngine, refG *graph.CSR, kernel string) QueryInfo {
	t.Helper()
	k, err := algorithms.New(kernel)
	if err != nil {
		t.Fatal(err)
	}
	maxIters := 0
	if k.Descriptor().Repair != algorithms.RepairFullRecompute {
		maxIters = engine.DefaultMaxIters - 1
	}
	info := checkQueryAt(t, d, refG, kernel, maxIters)
	if info.Mode == "incremental" {
		t.Fatalf("%s at cap %d: served incrementally", kernel, maxIters)
	}
	return info
}

// checkQueryAt is checkQuery at an iteration cap (0 selects the default).
func checkQueryAt(t *testing.T, d *DynamicEngine, refG *graph.CSR, kernel string, maxIters int) QueryInfo {
	t.Helper()
	res, info, err := d.QueryCtx(context.Background(), kernel, -1, maxIters)
	if err != nil {
		t.Fatalf("%s: query: %v", kernel, err)
	}
	k, err := algorithms.New(kernel)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the engine's own resolution: descriptor-driven source (the
	// highest-degree default for vertex-sourced kernels, the parameter
	// default for param kernels) and descriptor-capped iterations.
	src := algorithms.ResolveSource(k.Descriptor(), -1, refG.V, func() uint32 {
		hd, _ := graph.HighestDegreeVertex(refG)
		return hd
	})
	maxIters = algorithms.EffectiveMaxIters(k.Descriptor(), maxIters, engine.DefaultMaxIters)
	ref := algorithms.RunReference(refG, k, src, maxIters)
	if len(res.Prop) != len(ref.Prop) {
		t.Fatalf("%s: prop length %d, reference %d", kernel, len(res.Prop), len(ref.Prop))
	}
	for v := range ref.Prop {
		if res.Prop[v] != ref.Prop[v] {
			t.Fatalf("%s (%s serve, version %d): prop[%d] = %#x, reference %#x",
				kernel, info.Mode, info.Version, v, res.Prop[v], ref.Prop[v])
		}
	}
	return info
}

// TestDifferentialIncremental is the acceptance suite: all five kernels ×
// three graph families × randomized update batches × worker counts
// {1, 2, 4, 7}, comparing every incremental result bit-for-bit against a
// from-scratch reference run on the materialized post-update graph.
func TestDifferentialIncremental(t *testing.T) {
	for _, base := range testGraphs() {
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/w%d", base.Name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*100 + int64(base.V)))
				d := New(base, Config{Workers: workers})
				edges := base.Edges()
				incremental := 0
				for round := 0; round < 5; round++ {
					batch := randomBatch(rng, base.V, 1+rng.Intn(16))
					if _, err := d.ApplyUpdates(batch); err != nil {
						t.Fatal(err)
					}
					edges = append(edges, asEdges(batch)...)
					refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
					for _, kernel := range allKernels {
						info := checkQuery(t, d, refG, kernel)
						if info.Mode == "incremental" {
							incremental++
						}
						if info.Version != uint64(round+1) {
							t.Fatalf("version = %d, want %d", info.Version, round+1)
						}
					}
				}
				if incremental == 0 {
					t.Error("no query was served incrementally — repair path never exercised")
				}
				st := d.Stats()
				if st.IncrementalRepairs == 0 || st.FullRecomputes == 0 {
					t.Errorf("stats = %+v: want both repair modes exercised", st)
				}
			})
		}
	}
}

// TestWideRepairCompletes: a repair runs to its fixed point however much of
// the graph it reaches. Each batch below makes its repair visit more than a
// quarter of the edges — a k=2 cascade on a sparse uniform graph (the UU
// shape: its core has collapsed while most vertices keep in-degree ≥ 2, so
// the candidates span a giant component that is then peeled back), and a
// bfs and an sssp batch that links the source to a component it did not
// reach — and each is still served incrementally, with the reference's bits.
func TestWideRepairCompletes(t *testing.T) {
	// Two components: a random graph on [0, src) and a ring on
	// [src, src+16) that holds the source; link joins them.
	const src = 400
	edges := graph.Uniform("far", src, 4, 5).Edges()
	for v := uint32(src); v < src+16; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: src + (v+1-src)%16, Weight: 7})
	}
	split := graph.FromEdges("split", src+16, edges)
	link := []EdgeUpdate{{Src: src, Dst: 0, Weight: 3}}
	uu := graph.Uniform("uu", 1024, 3, 11)
	for _, c := range []struct {
		kernel string
		src    int64
		base   *graph.CSR
		batch  []EdgeUpdate
	}{
		{"kcore", 2, uu, randomBatch(rand.New(rand.NewSource(11)), uu.V, 8)},
		{"bfs", src, split, link},
		{"sssp", src, split, link},
	} {
		t.Run(c.kernel, func(t *testing.T) {
			k, err := algorithms.New(c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			d := New(c.base, Config{Workers: 2})
			if _, _, err := d.QueryCtx(context.Background(), c.kernel, c.src, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ApplyUpdates(c.batch); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace()
			res, info, err := d.QueryCtx(context.Background(), c.kernel, c.src, 0, engine.RunOptions{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			refG := graph.FromEdges(c.base.Name, c.base.V, append(c.base.Edges(), asEdges(c.batch)...))
			if ref := algorithms.RunReference(refG, k, uint32(c.src), engine.DefaultMaxIters); !slices.Equal(res.Prop, ref.Prop) {
				t.Fatalf("%s serve differs from the reference", info.Mode)
			}
			if info.Mode != "incremental" {
				t.Fatalf("mode %q, want incremental", info.Mode)
			}
			for _, sp := range tr.Spans() {
				if sp.Name == "repair" {
					if visits := sp.Attrs["edge_visits"].(uint64); visits <= info.Edges/4 {
						t.Fatalf("repair visited %d of %d edges: not a wide repair", visits, info.Edges)
					}
					return
				}
			}
			t.Fatal("no repair span")
		})
	}
}

// TestCompaction drives the overlay past a tiny compaction threshold and
// checks the representation change alters neither results nor version.
func TestCompaction(t *testing.T) {
	base := testGraphs()[2]
	rng := rand.New(rand.NewSource(9))
	d := New(base, Config{compactThreshold: 8})
	edges := base.Edges()
	for round := 0; round < 4; round++ {
		batch := randomBatch(rng, base.V, 6)
		v, err := d.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(round+1) {
			t.Fatalf("version = %d, want %d (compaction must not bump it)", v, round+1)
		}
		edges = append(edges, asEdges(batch)...)
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		checkQuery(t, d, refG, "bfs")
		checkQuery(t, d, refG, "sswp")
	}
	if st := d.Stats(); st.Compactions == 0 {
		t.Errorf("stats = %+v: compaction never triggered at threshold 8", st)
	}
	if n := d.ov.DeltaEdges(); n > 8 {
		t.Errorf("delta edges = %d after compaction rounds, want <= threshold", n)
	}
}

// TestCompactionInvalidatesPullState is the CSC-invalidation differential:
// the full-run engine lazily builds pull-mode state (the tiled CSC views,
// DESIGN.md §12) on its materialized CSR, and a compaction swaps that CSR
// out from under the stream — so a stale engine would fold in-edges of a
// graph that no longer exists. The DynamicEngine's per-version engine
// rebuild makes invalidation automatic; this test drives every kernel
// (including pr, whose dense mode defaults to pull, and bfs, whose auto
// mode mixes both directions) across repeated compaction boundaries and
// requires bit-identity with a from-scratch reference on the post-update
// graph each round.
func TestCompactionInvalidatesPullState(t *testing.T) {
	for _, base := range testGraphs() {
		// Every serve is a full engine run, so each round exercises the
		// rebuilt engine's pull structures rather than the overlay repair
		// path TestCompaction already covers.
		d := New(base, Config{Workers: 3, compactThreshold: 8})
		rng := rand.New(rand.NewSource(int64(base.V)))
		edges := base.Edges()
		for round := 0; round < 4; round++ {
			batch := randomBatch(rng, base.V, 6)
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
			refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
			for _, kernel := range allKernels {
				checkFullQuery(t, d, refG, kernel)
			}
		}
		if st := d.Stats(); st.Compactions == 0 {
			t.Fatalf("%s: compaction never triggered at threshold 8 (stats %+v)", base.Name, st)
		}
	}
}

// TestCachedServe checks that a repeat query at an unchanged version is
// served from the fixed-point memo without re-execution.
func TestCachedServe(t *testing.T) {
	d := New(testGraphs()[0], Config{})
	if _, err := d.ApplyUpdates([]EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	res1, info1, err := d.QueryCtx(context.Background(), "bfs", -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Mode != "full" {
		t.Fatalf("first serve mode = %q, want full", info1.Mode)
	}
	res2, info2, err := d.QueryCtx(context.Background(), "bfs", -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Mode != "cached" {
		t.Fatalf("repeat serve mode = %q, want cached", info2.Mode)
	}
	for v := range res1.Prop {
		if res1.Prop[v] != res2.Prop[v] {
			t.Fatalf("cached serve diverged at vertex %d", v)
		}
	}
	// The returned slices must be independent copies of the memo.
	res2.Prop[0] ^= 1
	res3, _, _ := d.QueryCtx(context.Background(), "bfs", -1, 0)
	if res3.Prop[0] == res2.Prop[0] {
		t.Error("query result aliases the internal state")
	}
}

// TestStateMemoEvictsLeastRecentlyServed fills the fixed-point memo with 64
// bfs states and stores a 65th: the state served least recently pays the
// next full run, where both a cached serve and a repair count as a serve.
func TestStateMemoEvictsLeastRecentlyServed(t *testing.T) {
	d := New(testGraphs()[0], Config{})
	query := func(src int64, want string) {
		t.Helper()
		if _, info, err := d.QueryCtx(context.Background(), "bfs", src, 0); err != nil || info.Mode != want {
			t.Fatalf("bfs from %d: mode %q, err %v; want %q", src, info.Mode, err, want)
		}
	}
	for src := range int64(maxKernelStates) {
		query(src, "full")
	}
	query(0, "cached")
	if _, err := d.ApplyUpdates([]EdgeUpdate{{Src: 5, Dst: 7, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	query(1, "incremental")
	query(maxKernelStates, "full") // least recently served: 2
	query(0, "incremental")
	query(1, "cached")
	query(2, "full") // evicts 3
	query(4, "incremental")
	query(3, "full")
}

// TestCappedMaxIters: an explicitly capped query must match a reference
// run at the same cap (full-run path, never repair) and must not poison
// the fixed-point memo.
func TestCappedMaxIters(t *testing.T) {
	base := testGraphs()[1]
	d := New(base, Config{})
	if _, err := d.ApplyUpdates([]EdgeUpdate{{Src: 0, Dst: 5, Weight: 9}}); err != nil {
		t.Fatal(err)
	}
	edges := append(base.Edges(), graph.Edge{Src: 0, Dst: 5, Weight: 9})
	refG := graph.FromEdges(base.Name, base.V, edges)
	for _, kernel := range []string{"pr", "bfs"} {
		res, info, err := d.QueryCtx(context.Background(), kernel, -1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != "full" {
			t.Fatalf("%s capped query mode = %q, want full", kernel, info.Mode)
		}
		k, _ := algorithms.New(kernel)
		src := uint32(0)
		if kernel == "bfs" {
			src, _ = graph.HighestDegreeVertex(refG)
		}
		ref := algorithms.RunReference(refG, k, src, 2)
		for v := range ref.Prop {
			if res.Prop[v] != ref.Prop[v] {
				t.Fatalf("%s capped: prop[%d] = %#x, reference %#x", kernel, v, res.Prop[v], ref.Prop[v])
			}
		}
	}
	// The capped run must not have been cached as a fixed point: the
	// default query afterwards must still be exact.
	checkQuery(t, d, refG, "bfs")
}

// TestLogOverflow ages a cached state past the replay log's reach; the
// query must take the full path and stay exact.
func TestLogOverflow(t *testing.T) {
	base := graph.Uniform("small", 64, 3, 21)
	d := New(base, Config{})
	rng := rand.New(rand.NewSource(22))
	if _, _, err := d.QueryCtx(context.Background(), "cc", -1, 0); err != nil { // seed a state at version 0
		t.Fatal(err)
	}
	edges := base.Edges()
	for i := 0; i < maxLogBatches+10; i++ {
		batch := randomBatch(rng, base.V, 1)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
	}
	refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
	checkQuery(t, d, refG, "cc")
}

// TestOverlayMaterialize checks the merged CSR is structurally valid and
// carries exactly the base-plus-updates edge multiset.
func TestOverlayMaterialize(t *testing.T) {
	base := testGraphs()[0]
	o := NewOverlay(base)
	rng := rand.New(rand.NewSource(31))
	want := base.Edges()
	for i := 0; i < 3; i++ {
		batch := randomBatch(rng, base.V, 10)
		if err := o.Apply(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, asEdges(batch)...)
	}
	m := o.Materialized()
	if err := m.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	if m.E() != uint64(len(want)) {
		t.Fatalf("materialized E = %d, want %d", m.E(), len(want))
	}
	got := m.Edges()
	sortEdges(got)
	sortEdges(want)
	if !slices.Equal(got, want) {
		t.Fatal("materialized edge multiset differs from base+updates")
	}
	if again := o.Materialized(); again != m {
		t.Error("materialized graph not memoized per version")
	}
	o.Compact()
	if o.DeltaEdges() != 0 || o.E() != uint64(len(want)) {
		t.Fatalf("compaction changed the edge count: delta=%d E=%d", o.DeltaEdges(), o.E())
	}
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return es[i].Weight < es[j].Weight
	})
}

// TestMaterializedEqualsFromEdges pins the overlay's exact contract: the
// materialized CSR is graph.FromEdges over the base's edges followed by
// every inserted edge in order, weights inside multi-edge runs included —
// also after a compaction. It is memoized per version.
func TestMaterializedEqualsFromEdges(t *testing.T) {
	base := graph.Kronecker("kron", 8, 8, 12)
	baseEdges := base.Edges()
	rng := rand.New(rand.NewSource(32))
	// Each batch re-inserts base pairs and repeats its own pairs, with
	// fresh weights, so most inserts land in multi-edge runs; the rest are
	// uniform random edges.
	multiEdgeBatch := func() []EdgeUpdate {
		batch := randomBatch(rng, base.V, 8)
		for len(batch) < 32 {
			e := baseEdges[rng.Intn(len(baseEdges))]
			for r := 1 + rng.Intn(3); r > 0; r-- {
				batch = append(batch, EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: uint8(1 + rng.Intn(255))})
			}
		}
		return batch
	}
	var history []EdgeUpdate
	check := func(what string, o *Overlay) {
		t.Helper()
		want := graph.FromEdges(base.Name, base.V, append(slices.Clone(baseEdges), asEdges(history)...))
		got := o.Materialized()
		if got.Name != want.Name || got.V != want.V || !slices.Equal(got.RowPtr, want.RowPtr) ||
			!slices.Equal(got.Col, want.Col) || !slices.Equal(got.Weight, want.Weight) {
			t.Fatalf("%s: materialized CSR differs from FromEdges(base ++ inserted)", what)
		}
	}
	o := NewOverlay(base)
	for round := 0; round < 6; round++ {
		batch := multiEdgeBatch()
		if err := o.Apply(batch); err != nil {
			t.Fatal(err)
		}
		history = append(history, batch...)
		check(fmt.Sprintf("round %d", round), o)
		if o.Materialized() != o.Materialized() {
			t.Fatal("materialized graph not memoized per version")
		}
		if round == 2 {
			o.Compact()
			if o.DeltaEdges() != 0 || o.E() != base.E()+uint64(len(history)) {
				t.Fatalf("compaction changed the edge count: delta=%d E=%d", o.DeltaEdges(), o.E())
			}
			check("after compact", o)
		}
	}
}

// TestHighestDegreeIncremental checks the incrementally maintained argmax
// agrees with the reference scan after every batch.
func TestHighestDegreeIncremental(t *testing.T) {
	base := testGraphs()[2]
	o := NewOverlay(base)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20; i++ {
		if err := o.Apply(randomBatch(rng, base.V, 5)); err != nil {
			t.Fatal(err)
		}
		want, _ := graph.HighestDegreeVertex(o.Materialized())
		if got := o.HighestDegreeVertex(); got != want {
			t.Fatalf("batch %d: highest-degree vertex = %d, want %d", i, got, want)
		}
	}
}

// TestUpdateValidation: malformed batches must be rejected atomically.
func TestUpdateValidation(t *testing.T) {
	base := graph.Uniform("g", 16, 2, 5)
	d := New(base, Config{})
	for name, batch := range map[string][]EdgeUpdate{
		"empty":       {},
		"src oob":     {{Src: 16, Dst: 0, Weight: 1}},
		"dst oob":     {{Src: 0, Dst: 99, Weight: 1}},
		"zero weight": {{Src: 0, Dst: 1, Weight: 0}},
		"second bad":  {{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 16, Weight: 1}},
	} {
		if _, err := d.ApplyUpdates(batch); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if v := d.Version(); v != 0 {
		t.Fatalf("version = %d after rejected batches, want 0", v)
	}
	if d.E() != base.E() {
		t.Fatalf("edge count changed by rejected batches")
	}
}

// TestFullRecomputeKernels pins the repair strategies the lp, pr, ppr and
// kcore descriptors declare. lp's dynamics are not monotone under
// insertions, and pr's and ppr's reference bits are a truncated float
// trajectory, so after an update the engine must never serve them
// incrementally — the first query at a new version is a full run (then
// cached). kcore declares support-growth: once a full run has seeded its
// state, every later version is repaired. All stay bit-identical to the
// reference on the materialized graph.
func TestFullRecomputeKernels(t *testing.T) {
	for kernel, want := range map[string]algorithms.RepairStrategy{
		"lp":    algorithms.RepairFullRecompute,
		"pr":    algorithms.RepairFullRecompute,
		"ppr":   algorithms.RepairFullRecompute,
		"kcore": algorithms.RepairSupportGrowth,
	} {
		t.Run(kernel, func(t *testing.T) {
			d := algorithms.MustDescriptor(kernel)
			if d.Repair != want {
				t.Fatalf("descriptor declares %v, want %v", d.Repair, want)
			}
			base := testGraphs()[2]
			rng := rand.New(rand.NewSource(53))
			eng := New(base, Config{Workers: 3})
			edges := base.Edges()
			const rounds = 3
			for round := 0; round < rounds; round++ {
				batch := randomBatch(rng, base.V, 10)
				if _, err := eng.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				edges = append(edges, asEdges(batch)...)
				refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
				wantMode := "full"
				if want == algorithms.RepairSupportGrowth && round > 0 {
					wantMode = "incremental"
				}
				if info := checkQuery(t, eng, refG, kernel); info.Mode != wantMode {
					t.Fatalf("round %d: mode %q, want %q (%v)", round, info.Mode, wantMode, want)
				}
				// Same version again: served from the result cache.
				if info := checkQuery(t, eng, refG, kernel); info.Mode != "cached" {
					t.Fatalf("round %d: repeat mode %q, want cached", round, info.Mode)
				}
			}
			wantRepairs := uint64(0)
			if want == algorithms.RepairSupportGrowth {
				wantRepairs = rounds - 1
			}
			if st := eng.Stats(); st.IncrementalRepairs != wantRepairs {
				t.Fatalf("stats = %+v: %d incremental repairs, want %d", st, st.IncrementalRepairs, wantRepairs)
			}
		})
	}
}

// TestDecodeBatch covers the wire decoder's accept and reject paths.
func TestDecodeBatch(t *testing.T) {
	good := []byte(`[{"src":1,"dst":2,"weight":7},{"src":3,"dst":4}]`)
	batch, err := DecodeBatch(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0] != (EdgeUpdate{1, 2, 7}) || batch[1] != (EdgeUpdate{3, 4, 1}) {
		t.Fatalf("decoded %+v", batch)
	}
	if rt, err := DecodeBatch(EncodeBatch(batch)); err != nil || !slices.Equal(rt, batch) {
		t.Fatalf("round trip: %+v, %v", rt, err)
	}
	for name, data := range map[string]string{
		"not json":      `{`,
		"not array":     `{"src":1}`,
		"empty":         `[]`,
		"missing dst":   `[{"src":1}]`,
		"negative src":  `[{"src":-1,"dst":2}]`,
		"huge dst":      `[{"src":1,"dst":4294967296}]`,
		"zero weight":   `[{"src":1,"dst":2,"weight":0}]`,
		"weight 256":    `[{"src":1,"dst":2,"weight":256}]`,
		"unknown field": `[{"src":1,"dst":2,"wieght":3}]`,
		"trailing":      `[{"src":1,"dst":2}] []`,
		"float src":     `[{"src":1.5,"dst":2}]`,
	} {
		if _, err := DecodeBatch([]byte(data)); err == nil {
			t.Errorf("%s: accepted %s", name, data)
		}
	}
	full := make([]EdgeUpdate, maxBatchEdges+1)
	for i := range full {
		full[i] = EdgeUpdate{Src: uint32(i), Dst: 1, Weight: 1}
	}
	if _, err := DecodeBatch(EncodeBatch(full[:maxBatchEdges])); err != nil {
		t.Errorf("cap: rejected a batch of exactly %d edges: %v", maxBatchEdges, err)
	}
	if _, err := DecodeBatch(EncodeBatch(full)); err == nil {
		t.Errorf("cap: accepted a batch of %d edges", len(full))
	}
}

// TestConcurrentUpdatesAndQueries hammers a DynamicEngine from updating and
// querying goroutines (the -race companion of the serve handler test) and
// then checks the settled state is exact.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	base := graph.Uniform("conc", 200, 4, 61)
	// The tiny compaction threshold makes updates swap the overlay's base
	// CSR mid-test, racing the lock-free V() reads below.
	d := New(base, Config{Workers: 2, compactThreshold: 16})
	var mu sync.Mutex
	edges := base.Edges()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				batch := randomBatch(rng, base.V, 3)
				mu.Lock()
				if _, err := d.ApplyUpdates(batch); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				edges = append(edges, asEdges(batch)...)
				mu.Unlock()
			}
		}(int64(w))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(kernel string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := d.QueryCtx(context.Background(), kernel, -1, 0); err != nil {
					t.Error(err)
					return
				}
				// V must stay readable lock-free while updates (and their
				// compactions) swap the overlay's base.
				if v := d.V(); v != base.V {
					t.Errorf("V = %d, want %d", v, base.V)
					return
				}
			}
		}(allKernels[w])
	}
	wg.Wait()

	refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
	for _, kernel := range allKernels {
		checkQuery(t, d, refG, kernel)
	}
}
