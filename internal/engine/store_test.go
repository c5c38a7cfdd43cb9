package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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
	if err := g.WriteSegment(f, blockEdges); err != nil {
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
	for _, k := range allKernels() {
		ref := algorithms.RunReference(g, k, src, 100)
		for _, workers := range []int{1, 2, 4, 7} {
			for _, dir := range []direction{dirAuto, dirPush, dirPull} {
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
	for _, k := range allKernels() {
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

// hugeStore reports one edge more than 32-bit tile offsets can count and
// answers nothing else: the nil embedded store makes any other call panic,
// so an engine must refuse it before it reads the shape it would size its
// index by.
type hugeStore struct{ graph.GraphStore }

func (hugeStore) NumEdges() uint64 { return 1 << 32 }

// TestEdgeCountGuard: NewFromStore refuses a store of 2^32 edges before it
// allocates anything, and Advance refuses a batch that would carry an engine
// past 2^32 - 1 edges, each with a message naming the edge count.
func TestEdgeCountGuard(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, "4294967296 edges") {
				t.Fatalf("%s: panic %q, want one naming 4294967296 edges", name, msg)
			}
		}()
		f()
	}
	mustPanic("NewFromStore", func() { NewFromStore(hugeStore{}, Config{Workers: 1}) })
	e := New(graph.FromEdges("one", 2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}), Config{Workers: 1})
	e.nEdges = math.MaxUint32 // as if it held that many
	if next, _ := e.Advance(nil); next.nEdges != math.MaxUint32 {
		t.Fatalf("Advance(nil) at the limit: %d edges", next.nEdges)
	}
	mustPanic("Advance", func() { e.Advance([]graph.Edge{{Src: 1, Dst: 0, Weight: 1}}) })
}
