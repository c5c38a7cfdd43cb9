package runner

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// writeTestSegment writes g as a segment file and returns its path.
func writeTestSegment(t *testing.T, dir string, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(dir, g.Name+SegmentExt)
	if err := g.WriteSegmentFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenStoredAndQuery(t *testing.T) {
	g := graph.Kronecker("stored-kron", 9, 8, 5)
	r := New(2)
	defer r.CloseStored()
	info, err := r.OpenStored(writeTestSegment(t, t.TempDir(), g))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "stored-kron" || info.Vertices != g.V || info.Edges != g.E() || info.Digest == "" {
		t.Fatalf("info = %+v, want shape of %q", info, g.Name)
	}

	q := Query{Dataset: "stored-kron", Kernel: "pr", Src: -1}
	res, qi, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qi.Mode != "engine" || qi.Version != 0 || qi.Edges != g.E() {
		t.Fatalf("info = %+v, want engine-served version-0 result", qi)
	}
	k, _ := algorithms.New("pr")
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, q.canonical().MaxIters)
	if !reflect.DeepEqual(res.Prop, ref.Prop) || res.Iterations != ref.Iterations {
		t.Fatal("stored query diverges from reference executor")
	}

	again, qi2, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qi2.Mode != "cached" || again != res {
		t.Fatalf("second submission: mode %q, cached=%v", qi2.Mode, again == res)
	}

	// The cache key is digest-addressed: the same query with the right
	// digest pre-filled keys identically, a different digest does not.
	keyed := q.canonical()
	keyed.Digest = info.Digest
	if keyed.Key() != qi.Key {
		t.Fatalf("digest-keyed query hashes to %s, served key %s", keyed.Key(), qi.Key)
	}
	other := keyed
	other.Digest = "not-the-digest"
	if other.Key() == qi.Key {
		t.Fatal("digest is not part of the content address")
	}
}

func TestStoredReadOnly(t *testing.T) {
	g := graph.Uniform("stored-uni", 200, 4, 9)
	r := New(1)
	defer r.CloseStored()
	if _, err := r.OpenStored(writeTestSegment(t, t.TempDir(), g)); err != nil {
		t.Fatal(err)
	}
	_, err := r.ApplyUpdates(context.Background(), "stored-uni", graph.ScaleTiny,
		[]stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("want read-only rejection, got %v", err)
	}
}

func TestOpenGraphDir(t *testing.T) {
	dir := t.TempDir()
	ga := graph.Uniform("dir-a", 100, 3, 1)
	gb := graph.Uniform("dir-b", 80, 3, 2)
	writeTestSegment(t, dir, ga)
	writeTestSegment(t, dir, gb)
	r := New(1)
	defer r.CloseStored()
	infos, err := r.OpenGraphDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "dir-a" || infos[1].Name != "dir-b" {
		t.Fatalf("infos = %+v, want dir-a, dir-b", infos)
	}
	// Idempotent for byte-identical files.
	if _, err := r.OpenGraphDir(dir); err != nil {
		t.Fatalf("reopening identical dir: %v", err)
	}
	if got := r.StoredGraphs(); len(got) != 2 {
		t.Fatalf("StoredGraphs lists %d entries, want 2", len(got))
	}
	// A same-name file with different bytes is a conflict, not a silent swap.
	ga2 := graph.Uniform("dir-a", 100, 3, 7)
	conflictDir := t.TempDir()
	writeTestSegment(t, conflictDir, ga2)
	if _, err := r.OpenGraphDir(conflictDir); err == nil ||
		!strings.Contains(err.Error(), "different digest") {
		t.Fatalf("want digest-conflict error, got %v", err)
	}

	if !r.KnownDataset("dir-a") || !r.KnownDataset("SW") || r.KnownDataset("no-such") {
		t.Fatal("KnownDataset misclassifies")
	}
	_, qi, err := r.RunQueryInfo(context.Background(), Query{Dataset: "dir-b", Kernel: "cc", Src: -1})
	if err != nil || qi.Vertices != gb.V || qi.Edges != gb.E() {
		t.Fatalf("dir-b served shape (%d, %d, %v), want (%d, %d, nil)", qi.Vertices, qi.Edges, err, gb.V, gb.E())
	}
	if _, ok := r.StoredDigest("dir-a"); !ok {
		t.Fatal("StoredDigest(dir-a) not found")
	}
}

// TestStoredShadowsGenerator: a segment registered under a generator
// dataset's name answers every query for that name — through the same
// single-flight loop, leader's-deadline retry included — keyed by its digest
// at version 0, with its own shape and its own bits.
func TestStoredShadowsGenerator(t *testing.T) {
	r := New(2)
	defer r.CloseStored()
	gen, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Uniform("SW", gen.V+37, 3, 11)
	info, err := r.OpenStored(writeTestSegment(t, t.TempDir(), g))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: int64(gen.V) + 5}
	leaderDeadline(t, r, r.QueryStats, func(ctx context.Context) error {
		_, _, err := r.RunQueryInfo(ctx, q)
		return err
	})
	res, qi, err := r.RunQueryInfo(context.Background(), q)
	if err != nil || qi.Mode != "cached" {
		t.Fatalf("repeat: mode %q, err %v", qi.Mode, err)
	}
	if qi.Vertices != g.V || qi.Edges != g.E() || qi.Version != 0 {
		t.Fatalf("info %+v, want the segment's shape at version 0", qi)
	}
	// Src is in range on the segment, though not on the generator graph.
	keyed := q.canonical()
	keyed.Digest = info.Digest
	if keyed.Key() != qi.Key {
		t.Fatal("shadowed query not keyed by the segment's digest and its own vertex count")
	}
	k, _ := algorithms.New("bfs")
	if ref := algorithms.RunReference(g, k, uint32(q.Src), keyed.MaxIters); !reflect.DeepEqual(res.Prop, ref.Prop) {
		t.Fatal("shadowed query diverges from the reference on the segment")
	}
}

// TestStoredQueryTraced checks the traced path works for stored graphs and
// bypasses the cache.
func TestStoredQueryTraced(t *testing.T) {
	g := graph.Uniform("stored-tr", 300, 4, 4)
	r := New(2)
	defer r.CloseStored()
	if _, err := r.OpenStored(writeTestSegment(t, t.TempDir(), g)); err != nil {
		t.Fatal(err)
	}
	q := Query{Dataset: "stored-tr", Kernel: "bfs", Src: -1}
	res, info, tr, err := r.RunQueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Spans()) == 0 {
		t.Fatal("traced stored query returned no spans")
	}
	if info.Mode != "engine" {
		t.Fatalf("mode %q, want engine", info.Mode)
	}
	k, _ := algorithms.New("bfs")
	src, _ := graph.HighestDegreeVertex(g)
	ref := algorithms.RunReference(g, k, src, q.canonical().MaxIters)
	if !reflect.DeepEqual(res.Prop, ref.Prop) {
		t.Fatal("traced stored query diverges from reference")
	}
}
