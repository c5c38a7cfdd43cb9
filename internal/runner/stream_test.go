package runner

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/stream"
)

// TestApplyUpdatesDifferential drives a dataset through the runner's
// streaming path and checks every post-update query is bit-identical to a
// from-scratch reference run on the materialized graph, at several worker
// counts.
func TestApplyUpdatesDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := New(workers)
		base, err := r.Graph("UU", graph.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		edges := base.Edges()
		for round := 0; round < 3; round++ {
			batch := make([]stream.EdgeUpdate, 5)
			for i := range batch {
				batch[i] = stream.EdgeUpdate{
					Src:    uint32(rng.Intn(int(base.V))),
					Dst:    uint32(rng.Intn(int(base.V))),
					Weight: uint8(1 + rng.Intn(255)),
				}
				edges = append(edges, graph.Edge{Src: batch[i].Src, Dst: batch[i].Dst, Weight: batch[i].Weight})
			}
			ver, err := r.ApplyUpdates(context.Background(), "UU", graph.ScaleTiny, batch)
			if err != nil {
				t.Fatal(err)
			}
			if ver != uint64(round+1) {
				t.Fatalf("version = %d, want %d", ver, round+1)
			}
			refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
			for _, kernel := range []string{"pr", "bfs", "cc", "sssp", "sswp"} {
				res, info, err := r.RunQueryInfo(context.Background(), Query{Dataset: "UU", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1})
				if err != nil {
					t.Fatal(err)
				}
				if info.Version != ver {
					t.Fatalf("%s: served version %d, want %d", kernel, info.Version, ver)
				}
				k, _ := algorithms.New(kernel)
				src := uint32(0)
				if kernel != "pr" && kernel != "cc" {
					src, _ = graph.HighestDegreeVertex(refG)
				}
				ref := algorithms.RunReference(refG, k, src, engine.DefaultMaxIters)
				for v := range ref.Prop {
					if res.Prop[v] != ref.Prop[v] {
						t.Fatalf("w%d round %d %s (%s): prop[%d] = %#x, reference %#x",
							workers, round, kernel, info.Mode, v, res.Prop[v], ref.Prop[v])
					}
				}
			}
		}
		st := r.StreamStats()
		if st.EdgesApplied != 15 || st.Version != 3 {
			t.Errorf("stream stats = %+v, want 15 edges over 3 batches", st)
		}
		// pr recomputes in full every round (and pulls, so there is an index
		// to carry): one engine from scratch, then one derived per version.
		if st.IndexRebuilt != 1 || st.IndexCarried != 2 {
			t.Errorf("stream stats = %+v, want 1 index rebuilt and 2 carried", st)
		}
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, r.Metrics()); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if c, b := samples[`piccolo_stream_index_total{how="carried"}`], samples[`piccolo_stream_index_total{how="rebuilt"}`]; c != 2 || b != 1 {
			t.Errorf("piccolo_stream_index_total = carried %v, rebuilt %v; want 2, 1", c, b)
		}
		// Nothing contended the stream engine's mutex here; the pair must
		// still be exported, and agree with the stats it bridges.
		for name, want := range map[string]float64{
			"piccolo_stream_lock_wait_seconds_total": float64(st.LockWaitNs) / 1e9,
			"piccolo_stream_lock_waits_total":        float64(st.LockWaits),
		} {
			if got, ok := samples[name]; !ok || got != want {
				t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
			}
		}
	}
}

// TestUpdateInvalidatesQueryCache pins the versioned-key + targeted
// invalidation contract: an update makes the old entry unreachable (new
// version ⇒ new key ⇒ miss), evicts it from the store, and leaves other
// graphs' entries alone.
func TestUpdateInvalidatesQueryCache(t *testing.T) {
	r := New(2)
	q := Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	other := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}
	if _, _, err := r.RunQueryInfo(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunQueryInfo(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	_, info, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "cached" || info.Version != 0 {
		t.Fatalf("pre-update repeat: info = %+v, want cached at version 0", info)
	}

	if _, err := r.ApplyUpdates(context.Background(), "UU", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if st := r.QueryStats(); st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want exactly the updated graph's entry", st.Invalidated)
	}
	before := r.QueryStats()
	_, info, err = r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Mode == "cached" {
		t.Fatalf("post-update query: info = %+v, want a fresh execution at version 1", info)
	}
	if after := r.QueryStats(); after.Misses != before.Misses+1 {
		t.Fatalf("post-update query was not a cache miss: %+v -> %+v", before, after)
	}
	// The other graph's entry survived the targeted invalidation.
	_, oinfo, err := r.RunQueryInfo(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if oinfo.Mode != "cached" {
		t.Fatalf("other graph's entry evicted: %+v", oinfo)
	}
	// Keys at distinct versions are distinct.
	v0 := q
	v1 := q
	v1.Version = 1
	if v0.Key() == v1.Key() {
		t.Fatal("version not part of the query content address")
	}
}

// TestCurrentGraph: before updates it is the base proxy; after, the
// materialized overlay with the inserted edges.
func TestCurrentGraph(t *testing.T) {
	r := New(1)
	base, err := r.CurrentGraph("PP", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.GraphVersion("PP", graph.ScaleTiny); v != 0 {
		t.Fatalf("fresh graph at version %d", v)
	}
	if _, err := r.ApplyUpdates(context.Background(), "PP", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 1, Dst: 2, Weight: 9}}); err != nil {
		t.Fatal(err)
	}
	cur, err := r.CurrentGraph("PP", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if cur.E() != base.E()+1 {
		t.Fatalf("current E = %d, want base %d + 1", cur.E(), base.E())
	}
	if v := r.GraphVersion("PP", graph.ScaleTiny); v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
}

// TestApplyUpdatesValidation: bad batches surface errors and change
// nothing.
func TestApplyUpdatesValidation(t *testing.T) {
	r := New(1)
	if _, err := r.ApplyUpdates(context.Background(), "NOPE", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := r.ApplyUpdates(context.Background(), "UU", graph.ScaleTiny, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := r.ApplyUpdates(context.Background(), "UU", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 1 << 30, Dst: 0, Weight: 1}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if v := r.GraphVersion("UU", graph.ScaleTiny); v != 0 {
		t.Fatalf("rejected batches moved the version to %d", v)
	}
}
