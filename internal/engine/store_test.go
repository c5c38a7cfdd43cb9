package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// openTestSegment writes g as a segment under the test's temp dir and
// opens it (mmap'd where the platform allows), closing it on cleanup.
// blockEdges <= 0 selects the default target; tiny targets force hub-row
// splits through the engine's build passes.
func openTestSegment(t *testing.T, g *graph.CSR, blockEdges int) *graph.Segment {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.Name+".pseg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSegmentBlocked(f, blockEdges); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEngineStoreDifferential is the out-of-core differential suite
// (DESIGN.md §14): every kernel × worker counts {1, 2, 4, 7} × all three
// traversal directions must produce bit-identical results whether the
// engine executes over the in-RAM CSR or over the mmap'd compressed
// segment of the same graph. The segment uses a small block target so hub
// rows split across blocks and arrive at the build passes as row pieces.
func TestEngineStoreDifferential(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	seg := openTestSegment(t, g, 256)
	src, _ := graph.HighestDegreeVertexStore(seg)
	if ramSrc, _ := graph.HighestDegreeVertex(g); ramSrc != src {
		t.Fatalf("segment picks source %d, CSR picks %d", src, ramSrc)
	}
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 2, 4, 7} {
			for _, dir := range []Direction{DirAuto, DirPush, DirPull} {
				name := fmt.Sprintf("%s/workers=%d/%s", k.Name(), workers, dir)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Workers: workers, shards: 2 * workers}
					ram := runDir(t, New(g, cfg), k, src, 100, dir)
					assertBitIdentical(t, ref, ram)
					stored := runDir(t, NewFromStore(seg, cfg), k, src, 100, dir)
					assertBitIdentical(t, ref, stored)
				})
			}
		}
	}
}

// TestEngineStoreReuse runs several kernels back to back on one
// segment-backed engine, so the memoized dense/pull builds are exercised
// across runs.
func TestEngineStoreReuse(t *testing.T) {
	g := graph.Uniform("uniform", 3000, 4, 11)
	seg := openTestSegment(t, g, 0)
	e := NewFromStore(seg, Config{Workers: 3})
	src, _ := graph.HighestDegreeVertexStore(seg)
	for _, k := range algorithms.All() {
		ref := algorithms.RunReference(g, k, src, 100)
		for run := 0; run < 2; run++ {
			assertBitIdentical(t, ref, e.Run(k, src, 100))
		}
	}
}

// TestEngineStoreDegenerate runs the engine over segment-backed degenerate
// graphs (the satellite table: V=0, no edges, lone self-loop). The V=0
// case must return an empty property vector rather than indexing into one.
func TestEngineStoreDegenerate(t *testing.T) {
	for _, g := range []*graph.CSR{
		graph.FromEdges("v0", 0, nil),
		graph.FromEdges("e0", 5, nil),
		graph.FromEdges("self-loop", 1, []graph.Edge{{Src: 0, Dst: 0, Weight: 3}}),
	} {
		t.Run(g.Name, func(t *testing.T) {
			seg := openTestSegment(t, g, 0)
			k, err := algorithms.New("pr")
			if err != nil {
				t.Fatal(err)
			}
			src, _ := graph.HighestDegreeVertexStore(seg)
			got := NewFromStore(seg, Config{Workers: 2}).Run(k, src, 50)
			if uint32(len(got.Prop)) != g.V {
				t.Fatalf("prop length %d, want %d", len(got.Prop), g.V)
			}
			if g.V > 0 {
				assertBitIdentical(t, algorithms.RunReference(g, k, src, 50), got)
			}
		})
	}
}
