package stream

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// indexCounts is the (carried, rebuilt) pair of a DynamicEngine.
func indexCounts(d *DynamicEngine) [2]uint64 {
	st := d.Stats()
	return [2]uint64{st.IndexCarried, st.IndexRebuilt}
}

// tracedFullQuery runs one traced iteration of kernel — an explicit cap
// always takes the full-run path and stays out of the memo — and returns the
// "index" span's attributes (nil when the engine was already current).
func tracedFullQuery(t *testing.T, d *DynamicEngine, kernel string) map[string]any {
	t.Helper()
	tr := obs.NewTrace()
	if _, _, err := d.QueryCtx(context.Background(), kernel, -1, 1, engine.RunOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "index" {
			return sp.Attrs
		}
	}
	return nil
}

// TestIndexCarriedAcrossVersions drives full recomputes of every kernel
// across versions (checkFullQuery): the first version builds its engine
// from scratch, every later one derives it from its predecessor, every
// result stays bit-identical to the reference on the materialized graph,
// and the "index" span says which happened.
func TestIndexCarriedAcrossVersions(t *testing.T) {
	for _, base := range testGraphs() {
		for _, workers := range []int{1, 2, 4, 7} {
			d := New(base, Config{Workers: workers})
			rng := rand.New(rand.NewSource(int64(workers)*31 + int64(base.V)))
			edges := base.Edges()
			const rounds = 6
			for round := 0; round < rounds; round++ {
				batch := randomBatch(rng, base.V, 1+rng.Intn(24))
				if round == 2 {
					batch = append(batch, batch[0], EdgeUpdate{Src: 5, Dst: 5, Weight: 9}) // multi-edge, self-loop
				}
				if _, err := d.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				edges = append(edges, asEdges(batch)...)
				refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
				// pr runs dense pull, so from here on the engine has an index
				// to carry.
				attrs := tracedFullQuery(t, d, "pr")
				want := "carried"
				if round == 0 {
					want = "rebuilt"
				}
				if attrs == nil || attrs["how"] != want {
					t.Fatalf("%s w%d round %d: index span %v, want how=%s", base.Name, workers, round, attrs, want)
				}
				if want == "carried" && (attrs["inserted"] != len(batch) || attrs["touched_tiles"].(int) < 1) {
					t.Fatalf("%s w%d round %d: index span %v for a %d-edge batch", base.Name, workers, round, attrs, len(batch))
				}
				for _, kernel := range allKernels {
					checkFullQuery(t, d, refG, kernel)
				}
			}
			if got := indexCounts(d); got != [2]uint64{rounds - 1, 1} {
				t.Fatalf("%s w%d: (carried, rebuilt) = %v, want [%d 1]", base.Name, workers, got, rounds-1)
			}
		}
	}
}

// TestCarriedRunMaterializesNothing: no full recompute materializes a graph —
// no round has a "materialize" span — whether its engine is carried (it runs
// on the advanced pull index alone, and the overlay's materialized CSR is
// never built) or rebuilt on the base, the original graph or the one a
// compaction adopted.
func TestCarriedRunMaterializesNothing(t *testing.T) {
	base := testGraphs()[1]
	d := New(base, Config{Workers: 2, compactThreshold: 8})
	rng := rand.New(rand.NewSource(38))
	edges := base.Edges()
	for round, want := range []string{"rebuilt", "carried", "rebuilt"} {
		if round > 0 {
			batch := randomBatch(rng, base.V, 6) // the second batch passes the threshold
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
		}
		tr := obs.NewTrace()
		if _, _, err := d.QueryCtx(context.Background(), "pr", -1, 1, engine.RunOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		spans := map[string]map[string]any{}
		for _, sp := range tr.Spans() {
			spans[sp.Name] = sp.Attrs
		}
		if spans["index"]["how"] != want {
			t.Fatalf("round %d: index span %v, want how=%s", round, spans["index"], want)
		}
		if _, mat := spans["materialize"]; mat {
			t.Fatalf("round %d (%s): a full run materialized the graph", round, want)
		}
		if want == "carried" && d.ov.mat != nil {
			t.Fatalf("round %d: a carried full run built the overlay's materialized CSR", round)
		}
		checkQuery(t, d, graph.FromEdges(base.Name, base.V, slices.Clone(edges)), "pr")
	}
	if c := d.Stats().Compactions; c != 1 {
		t.Fatalf("%d compactions, want 1 before the last round", c)
	}
}

// TestIndexRebuiltAfterCompaction pins the re-partition point: a compaction
// since the last from-scratch build forces the next full recompute to
// rebuild, versions without one carry, and results match throughout.
func TestIndexRebuiltAfterCompaction(t *testing.T) {
	base := testGraphs()[1]
	d := New(base, Config{Workers: 3, compactThreshold: 8})
	rng := rand.New(rand.NewSource(77))
	edges := base.Edges()
	var want [2]uint64
	var compactions uint64
	for round := 0; round < 8; round++ {
		batch := randomBatch(rng, base.V, 6)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		for _, kernel := range allKernels {
			checkFullQuery(t, d, refG, kernel)
		}
		if c := d.Stats().Compactions; round == 0 || c != compactions {
			want[1]++
			compactions = c
		} else {
			want[0]++
		}
		if got := indexCounts(d); got != want {
			t.Fatalf("round %d (%d compactions): (carried, rebuilt) = %v, want %v", round, compactions, got, want)
		}
	}
	if want[0] == 0 || want[1] < 3 {
		t.Fatalf("(carried, rebuilt) = %v: want both paths taken, rebuilt after several compactions", want)
	}
}

// TestLogReachesBase lets more than maxLogBatches batches pass between two
// full recomputes. Without a compaction the log keeps every batch since the
// original graph, so the engine carries across all of them; after
// compactions the next full run builds on the newest base and carries the
// batches since it. Results match the reference throughout.
func TestLogReachesBase(t *testing.T) {
	base := graph.Uniform("small", 64, 3, 21)
	stream := func(t *testing.T, d *DynamicEngine, n int) *graph.CSR {
		rng := rand.New(rand.NewSource(23))
		edges := base.Edges()
		for i := 0; i < n; i++ {
			batch := randomBatch(rng, base.V, 1)
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
		}
		return graph.FromEdges(base.Name, base.V, edges)
	}
	t.Run("no-compaction", func(t *testing.T) {
		d := New(base, Config{})
		checkQuery(t, d, base, "pr")
		refG := stream(t, d, maxLogBatches+10)
		for _, kernel := range allKernels {
			checkFullQuery(t, d, refG, kernel)
		}
		if got := indexCounts(d); got != [2]uint64{1, 1} {
			t.Fatalf("(carried, rebuilt) = %v, want [1 1]", got)
		}
	})
	t.Run("compaction", func(t *testing.T) {
		d := New(base, Config{compactThreshold: 100})
		checkQuery(t, d, base, "pr")
		refG := stream(t, d, maxLogBatches+44)
		if c := d.Stats().Compactions; c != 2 || d.baseVer != 202 || len(d.log) < maxLogBatches {
			t.Fatalf("%d compactions, base at version %d, %d logged batches; want 2, 202, >= %d",
				c, d.baseVer, len(d.log), maxLogBatches)
		}
		attrs := tracedFullQuery(t, d, "pr")
		if attrs["how"] != "rebuilt" || attrs["inserted"] != 98 || attrs["touched_tiles"].(int) < 1 {
			t.Fatalf("index span %v, want a rebuild on the base carried by 98 edges", attrs)
		}
		for _, kernel := range allKernels {
			checkFullQuery(t, d, refG, kernel)
		}
		if got := indexCounts(d); got != [2]uint64{0, 2} {
			t.Fatalf("(carried, rebuilt) = %v, want [0 2]", got)
		}
	})
}

// TestIndexOnRestoredEngine: a WAL-restored engine has no predecessor, so
// its first full recompute rebuilds; later versions carry.
func TestIndexOnRestoredEngine(t *testing.T) {
	base := testGraphs()[0]
	rng := rand.New(rand.NewSource(3))
	var history []EdgeUpdate
	var batches [][]EdgeUpdate
	for i := 0; i < 5; i++ {
		batches = append(batches, randomBatch(rng, base.V, 4))
		history = append(history, batches[i]...)
	}
	d, err := NewRestored(base, Config{}, &Recovered{Batches: batches})
	if err != nil {
		t.Fatal(err)
	}
	edges := append(base.Edges(), asEdges(history)...)
	for round := 0; round < 3; round++ {
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		for _, kernel := range allKernels {
			checkFullQuery(t, d, refG, kernel)
		}
		if got := indexCounts(d); got != [2]uint64{uint64(round), 1} {
			t.Fatalf("restored engine, round %d: (carried, rebuilt) = %v, want [%d 1]", round, got, round)
		}
		batch := randomBatch(rng, base.V, 4)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
	}
}
