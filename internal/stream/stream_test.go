package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
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
	res, info, err := d.QueryCtx(context.Background(), kernel, -1, 0)
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
	maxIters := algorithms.EffectiveMaxIters(k.Descriptor(), 0, engine.DefaultMaxIters)
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

// TestRepairDisabled forces every query down the full-run path and checks
// exactness is preserved (the fallback is the safety net of the fatness
// switch, so it must be independently correct).
func TestRepairDisabled(t *testing.T) {
	base := testGraphs()[0]
	rng := rand.New(rand.NewSource(7))
	d := New(base, Config{Workers: 3, fatFraction: -1})
	edges := base.Edges()
	for round := 0; round < 3; round++ {
		batch := randomBatch(rng, base.V, 8)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		for _, kernel := range allKernels {
			if info := checkQuery(t, d, refG, kernel); info.Mode == "incremental" {
				t.Fatalf("%s: incremental serve with repair disabled", kernel)
			}
		}
	}
	if st := d.Stats(); st.IncrementalRepairs != 0 {
		t.Errorf("stats = %+v: repairs happened with repair disabled", st)
	}
}

// TestFatFallback sets a budget so small that every repair aborts
// mid-flight; the abandoned half-advanced state must be discarded and the
// full run must still produce exact results.
func TestFatFallback(t *testing.T) {
	base := testGraphs()[1]
	rng := rand.New(rand.NewSource(8))
	d := New(base, Config{Workers: 2, fatFraction: 1e-9})
	edges := base.Edges()
	for round := 0; round < 3; round++ {
		batch := randomBatch(rng, base.V, 12)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		for _, kernel := range allKernels {
			checkQuery(t, d, refG, kernel)
		}
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
		// Repair disabled: every serve is a full engine run, so each round
		// exercises the rebuilt engine's pull structures rather than the
		// overlay repair path TestCompaction already covers.
		d := New(base, Config{Workers: 3, fatFraction: -1, compactThreshold: 8})
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
				checkQuery(t, d, refG, kernel)
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

// TestApproxPageRank checks the delta-PR estimate tracks the exact result
// within tolerance across updates, and that it is maintained incrementally
// (later calls push far less than the initializing one).
func TestApproxPageRank(t *testing.T) {
	base := testGraphs()[0]
	d := New(base, Config{})
	rng := rand.New(rand.NewSource(51))

	check := func(stage string) {
		t.Helper()
		approx, _, err := d.ApproxPageRank(1e-12)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := d.QueryCtx(context.Background(), "pr", -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range approx {
			want := math.Float64frombits(exact.Prop[v])
			if diff := math.Abs(approx[v] - want); diff > 1e-4*math.Max(1, want) {
				t.Fatalf("%s: vertex %d: approx %.9f, exact %.9f (diff %g)", stage, v, approx[v], want, diff)
			}
		}
	}

	check("initial")
	initPushes := d.Stats().DeltaPRPushes
	// A repeat at an unchanged version finds every residual already below
	// eps: the incremental state must make it free.
	if _, _, err := d.ApproxPageRank(1e-12); err != nil {
		t.Fatal(err)
	}
	if again := d.Stats().DeltaPRPushes; again != initPushes {
		t.Errorf("repeat approx query pushed %d residuals, want 0", again-initPushes)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyUpdates(randomBatch(rng, base.V, 4)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after batch %d", i+1))
	}
	if st := d.Stats(); st.DeltaPRQueries != 5 {
		t.Fatalf("delta-PR queries = %d, want 5", st.DeltaPRQueries)
	}
}

// TestApproxPersonalizedPageRank exercises the ppr descriptor's residual
// repair path: the per-source delta-PR estimate must track the exact ppr
// query across update batches, per source, and repeated queries at an
// unchanged version must be free.
func TestApproxPersonalizedPageRank(t *testing.T) {
	base := testGraphs()[1]
	d := New(base, Config{})
	rng := rand.New(rand.NewSource(52))
	hd, _ := graph.HighestDegreeVertex(base)
	sources := []int64{int64(hd), 0, 7}

	check := func(stage string, src int64) {
		t.Helper()
		approx, info, err := d.ApproxPersonalizedPageRank(src, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != "incremental" {
			t.Fatalf("%s: mode %q, want incremental", stage, info.Mode)
		}
		exact, _, err := d.QueryCtx(context.Background(), "ppr", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range approx {
			// The exact kernel keeps its personalization flag in bit 63.
			want := math.Float64frombits(exact.Prop[v] &^ (1 << 63))
			if diff := math.Abs(approx[v] - want); diff > 1e-4*math.Max(1, want) {
				t.Fatalf("%s src %d: vertex %d: approx %.9f, exact %.9f (diff %g)",
					stage, src, v, approx[v], want, diff)
			}
		}
	}

	for _, src := range sources {
		check("initial", src)
	}
	initPushes := d.Stats().DeltaPRPushes
	if _, _, err := d.ApproxPersonalizedPageRank(sources[0], 1e-12); err != nil {
		t.Fatal(err)
	}
	if again := d.Stats().DeltaPRPushes; again != initPushes {
		t.Errorf("repeat personalized query pushed %d residuals, want 0", again-initPushes)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyUpdates(randomBatch(rng, base.V, 4)); err != nil {
			t.Fatal(err)
		}
		for _, src := range sources {
			check(fmt.Sprintf("after batch %d", i+1), src)
		}
	}
	// Mass conservation: a personalized vector sums to ~1 (restart mass),
	// minus what dangling vertices drop.
	approx, _, err := d.ApproxPersonalizedPageRank(sources[0], 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range approx {
		sum += p
	}
	if sum <= 0 || sum > 1+1e-6 {
		t.Fatalf("personalized mass sums to %g, want in (0, 1]", sum)
	}
}

// TestFullRecomputeKernels pins the repair strategies the lp and kcore
// descriptors declare. lp's dynamics are not monotone under insertions, so
// after an update the engine must never serve it incrementally — the first
// query at a new version is a full run (then cached). kcore declares
// support-growth: once a full run has seeded its state, every later version
// is repaired. Both stay bit-identical to the reference on the materialized
// graph.
func TestFullRecomputeKernels(t *testing.T) {
	for kernel, want := range map[string]algorithms.RepairStrategy{
		"lp":    algorithms.RepairFullRecompute,
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
	batch, err := DecodeBatch(good, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0] != (EdgeUpdate{1, 2, 7}) || batch[1] != (EdgeUpdate{3, 4, 1}) {
		t.Fatalf("decoded %+v", batch)
	}
	if rt, err := DecodeBatch(EncodeBatch(batch), 0); err != nil || !slices.Equal(rt, batch) {
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
		if _, err := DecodeBatch([]byte(data), 0); err == nil {
			t.Errorf("%s: accepted %s", name, data)
		}
	}
	if _, err := DecodeBatch([]byte(`[{"src":1,"dst":2},{"src":2,"dst":3}]`), 1); err == nil {
		t.Error("cap: accepted a batch beyond maxEdges")
	}
}

// TestConcurrentUpdatesAndQueries hammers a DynamicEngine from updating,
// querying and approximating goroutines (the -race companion of the serve
// handler test) and then checks the settled state is exact.
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
				if _, _, err := d.ApproxPageRank(0); err != nil {
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
