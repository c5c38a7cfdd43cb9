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
	if _, _, err := d.QueryOpts(context.Background(), kernel, -1, 1, engine.RunOptions{Trace: tr}); err != nil {
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
// across versions with repair disabled: the first version builds its engine
// from scratch, every later one derives it from its predecessor, every
// result stays bit-identical to the reference on the materialized graph,
// and the "index" span says which happened.
func TestIndexCarriedAcrossVersions(t *testing.T) {
	for _, base := range testGraphs() {
		for _, workers := range []int{1, 2, 4, 7} {
			d := New(base, Config{Workers: workers, FatFraction: -1})
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
					checkQuery(t, d, refG, kernel)
				}
			}
			if got := indexCounts(d); got != [2]uint64{rounds - 1, 1} {
				t.Fatalf("%s w%d: (carried, rebuilt) = %v, want [%d 1]", base.Name, workers, got, rounds-1)
			}
		}
	}
}

// TestIndexRebuiltAfterCompaction pins the re-partition point: a compaction
// since the last from-scratch build forces the next full recompute to
// rebuild, versions without one carry, and results match throughout.
func TestIndexRebuiltAfterCompaction(t *testing.T) {
	base := testGraphs()[1]
	d := New(base, Config{Workers: 3, FatFraction: -1, CompactThreshold: 8})
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
			checkQuery(t, d, refG, kernel)
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

// TestIndexRebuiltPastLogReach lets more than maxLogBatches batches pass
// between two full recomputes: the edges since the engine's version are no
// longer all in the replay log, so the index must be rebuilt — and the
// version after that carries again.
func TestIndexRebuiltPastLogReach(t *testing.T) {
	base := graph.Uniform("small", 64, 3, 21)
	d := New(base, Config{FatFraction: -1})
	rng := rand.New(rand.NewSource(23))
	checkQuery(t, d, base, "pr")
	edges := base.Edges()
	apply := func(n int) *graph.CSR {
		for i := 0; i < n; i++ {
			batch := randomBatch(rng, base.V, 1)
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
		}
		return graph.FromEdges(base.Name, base.V, slices.Clone(edges))
	}
	refG := apply(maxLogBatches + 10)
	for _, kernel := range allKernels {
		checkQuery(t, d, refG, kernel)
	}
	if got := indexCounts(d); got != [2]uint64{0, 2} {
		t.Fatalf("past the log's reach: (carried, rebuilt) = %v, want [0 2]", got)
	}
	refG = apply(maxLogBatches) // exactly at the log's reach
	for _, kernel := range allKernels {
		checkQuery(t, d, refG, kernel)
	}
	if got := indexCounts(d); got != [2]uint64{1, 2} {
		t.Fatalf("at the log's reach: (carried, rebuilt) = %v, want [1 2]", got)
	}
}

// TestIndexOnRestoredEngine: a WAL-restored engine has no predecessor, so
// its first full recompute rebuilds; later versions carry.
func TestIndexOnRestoredEngine(t *testing.T) {
	base := testGraphs()[0]
	rng := rand.New(rand.NewSource(3))
	var history []EdgeUpdate
	for i := 0; i < 5; i++ {
		history = append(history, randomBatch(rng, base.V, 4)...)
	}
	d, err := NewRestored(base, Config{FatFraction: -1}, &Recovered{Version: 5, History: history})
	if err != nil {
		t.Fatal(err)
	}
	edges := append(base.Edges(), asEdges(history)...)
	for round := 0; round < 3; round++ {
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		for _, kernel := range allKernels {
			checkQuery(t, d, refG, kernel)
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
