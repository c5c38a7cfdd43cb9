package engine

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// insertEdges returns g plus batch the way stream.Overlay materializes it:
// each new edge is appended to its source's row in batch order and the row
// is stable-sorted by destination. (The engine package cannot import stream;
// the stream suite drives the real overlay through the same path.)
func insertEdges(g *graph.CSR, batch []graph.Edge) *graph.CSR {
	extra := map[uint32][]graph.Edge{}
	for _, e := range batch {
		extra[e.Src] = append(extra[e.Src], e)
	}
	out := &graph.CSR{Name: g.Name, V: g.V, RowPtr: make([]uint64, uint64(g.V)+1)}
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		row := make([]graph.Edge, 0, len(dsts)+len(extra[u]))
		for i, v := range dsts {
			row = append(row, graph.Edge{Src: u, Dst: v, Weight: ws[i]})
		}
		row = append(row, extra[u]...)
		slices.SortStableFunc(row, func(a, b graph.Edge) int { return cmp.Compare(a.Dst, b.Dst) })
		for _, e := range row {
			out.Col = append(out.Col, e.Dst)
			out.Weight = append(out.Weight, e.Weight)
		}
		out.RowPtr[u+1] = uint64(len(out.Col))
	}
	return out
}

// randomEdges draws n insertions over [0, v): mostly uniform, with repeats
// of an earlier edge of the batch (multi-edges, also at other weights) and
// self-loops mixed in.
func randomEdges(rng *rand.Rand, v uint32, n int) []graph.Edge {
	batch := make([]graph.Edge, n)
	for i := range batch {
		e := graph.Edge{Src: uint32(rng.Intn(int(v))), Dst: uint32(rng.Intn(int(v)))}
		switch rng.Intn(8) {
		case 0:
			e.Dst = e.Src
		case 1:
			if i > 0 {
				e = batch[rng.Intn(i)]
			}
		}
		e.Weight = uint8(1 + rng.Intn(255))
		batch[i] = e
	}
	return batch
}

// rebuiltPull builds g's pull index from scratch at prev's shard bounds —
// what Advance's carried index must equal.
func rebuiltPull(prev *Engine, g *graph.CSR, cfg Config) *pullIndex {
	e := New(g, cfg)
	e.bounds, e.owner = prev.bounds, prev.owner
	return e.buildPull(1)
}

// clonePull deep-copies an index, so a test can prove Advance left its
// receiver's alone.
func clonePull(idx *pullIndex) *pullIndex {
	out := &pullIndex{shards: make([]pullShard, len(idx.shards)), degs: slices.Clone(idx.degs)}
	for s, ps := range idx.shards {
		out.shards[s] = pullShard{tiles: make([]pullTile, len(ps.tiles)), edges: ps.edges}
		for t, pt := range ps.tiles {
			out.shards[s].tiles[t] = pullTile{
				base: pt.base, dsts: slices.Clone(pt.dsts), rowPtr: slices.Clone(pt.rowPtr),
				row: slices.Clone(pt.row), w: slices.Clone(pt.w),
			}
		}
	}
	return out
}

// forcePull builds e's pull index now (push-pinned sparse runs never would).
func forcePull(e *Engine) *pullIndex {
	rs := newRunState(e)
	rs.width = 1
	return rs.pullViews()
}

// advance is Advance then Bind.
func advance(e *Engine, batch []graph.Edge, ng *graph.CSR) *Engine {
	succ, _ := e.Advance(batch)
	return succ.Bind(ng)
}

// requireSamePull fails naming the first field that differs.
func requireSamePull(t *testing.T, got, want *pullIndex) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if !slices.Equal(got.degs, want.degs) {
		t.Fatal("carried degs differ from the rebuild")
	}
	for s := range want.shards {
		if got.shards[s].edges != want.shards[s].edges {
			t.Fatalf("shard %d: %d edges, rebuild %d", s, got.shards[s].edges, want.shards[s].edges)
		}
		for ti, w := range want.shards[s].tiles {
			g := got.shards[s].tiles[ti]
			for name, same := range map[string]bool{
				"base": g.base == w.base, "dsts": reflect.DeepEqual(g.dsts, w.dsts),
				"rowPtr": reflect.DeepEqual(g.rowPtr, w.rowPtr),
				"row":    reflect.DeepEqual(g.row, w.row), "w": reflect.DeepEqual(g.w, w.w),
			} {
				if !same {
					t.Fatalf("shard %d tile %d: %s differs from the rebuild", s, ti, name)
				}
			}
		}
	}
	t.Fatal("carried index differs from the rebuild")
}

// TestAdvanceMatchesRebuild chains an engine through 24 versions of seeded
// random batches and requires, at every version, that the carried pull
// index equals a from-scratch build at the same bounds field for field, and
// that the predecessor's index was not written. The base graph has no
// out-edges from the upper half of the vertex range, so with 64-wide tiles
// half of every shard's tiles start empty: insertions land in empty tiles,
// bring destinations new to a tile, repeat existing edges (multi-edges) and
// loop on their source; batch sizes run from 1 edge to many times the tile
// width.
func TestAdvanceMatchesRebuild(t *testing.T) {
	const v = 512
	rng := rand.New(rand.NewSource(16))
	var base []graph.Edge
	for i := 0; i < 3000; i++ {
		base = append(base, graph.Edge{
			Src: uint32(rng.Intn(v / 2)), Dst: uint32(rng.Intn(v)), Weight: uint8(1 + rng.Intn(255)),
		})
	}
	g := graph.FromEdges("half", v, base)
	for _, cfg := range []Config{
		{Workers: 2, shards: 5, tileSourceWidth: 64},
		{Workers: 1, shards: 1, tileSourceWidth: 64},
		{Workers: 4}, // one tile covers every source
	} {
		t.Run(fmt.Sprintf("shards=%d/tile=%d", cfg.shards, cfg.tileSourceWidth), func(t *testing.T) {
			g, e := g, New(g, cfg)
			forcePull(e)
			sizes := []int{1, 1, 2, 7, 18, 64, 700, 5002}
			tiles := 0
			for ver := 0; ver < 24; ver++ {
				batch := randomEdges(rng, v, sizes[ver%len(sizes)])
				if ver == 3 {
					// Repeat edges the graph already holds: each must land
					// right behind its existing copies.
					for i := range batch {
						batch[i].Src, batch[i].Dst = base[i].Src, base[i].Dst
					}
				}
				before := clonePull(e.pull.Load())
				ng := insertEdges(g, batch)
				succ, touched := e.Advance(batch)
				next := succ.Bind(ng)
				if !reflect.DeepEqual(e.pull.Load(), before) {
					t.Fatalf("version %d: Advance wrote its receiver's index", ver)
				}
				requireSamePull(t, next.pull.Load(), rebuiltPull(e, ng, cfg))
				if touched < 1 || touched > len(batch) {
					t.Fatalf("version %d: %d touched tiles for %d edges", ver, touched, len(batch))
				}
				tiles += touched
				g, e = ng, next
			}
			if cfg.tileSourceWidth != 0 && tiles < 24*2 {
				t.Fatalf("only %d tiles touched over 24 versions: batches never spread", tiles)
			}
		})
	}
}

// TestAdvancedEngineDifferential runs the engine differential — every
// kernel × workers {1,2,4,7} × push/pull/auto against RunReference — on
// engines advanced through several versions, at every version. The first
// engine's index is built up front (push-pinned sparse runs would never
// build one, and without one there is nothing to advance); every later one
// is carried.
func TestAdvancedEngineDifferential(t *testing.T) {
	const versions = 3
	for _, base := range diffGraphs() {
		rng := rand.New(rand.NewSource(int64(base.V)))
		graphs := []*graph.CSR{base}
		var batches [][]graph.Edge
		for ver := 0; ver < versions; ver++ {
			batches = append(batches, randomEdges(rng, base.V, 1+rng.Intn(40)))
			graphs = append(graphs, insertEdges(graphs[ver], batches[ver]))
		}
		final := graphs[versions]
		src, _ := graph.HighestDegreeVertex(final)
		refs := make([][]*algorithms.ReferenceResult, versions+1)
		for ver := 1; ver <= versions; ver++ {
			for _, k := range algorithms.All() {
				refs[ver] = append(refs[ver], algorithms.RunReference(graphs[ver], k, src, 100))
			}
		}
		for _, dir := range []Direction{DirPush, DirPull, DirAuto} {
			for _, workers := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", base.Name, dir, workers), func(t *testing.T) {
					e := New(base, Config{Workers: workers, shards: 2 * workers})
					forcePull(e)
					for ver := 1; ver <= versions; ver++ {
						e = advance(e, batches[ver-1], graphs[ver])
						for i, k := range algorithms.All() {
							opts := forceDir(dir)
							opts.Width = flipWidth(workers)
							got, err := e.RunCtx(context.Background(), k, src, 100, opts)
							if err != nil {
								t.Fatal(err)
							}
							assertBitIdentical(t, refs[ver][i], got)
						}
					}
				})
			}
		}
	}
}

// TestAdvanceWhileRunning derives version n+1 while goroutines run every
// kernel on version n, then keeps both busy while n+2 is derived from n+1,
// and so on: each version's results must equal its own reference, which
// under -race also proves Advance only reads its receiver's index.
func TestAdvanceWhileRunning(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	rng := rand.New(rand.NewSource(5))
	e := New(g, Config{Workers: 2, shards: 5, tileSourceWidth: 128})
	forcePull(e)
	var wg sync.WaitGroup
	for ver := 0; ver < 4; ver++ {
		cases := refCases(g)
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			runConcurrently(t, e, cases, 3)
		}(e)
		batch := randomEdges(rng, g.V, 1+rng.Intn(200))
		ng := insertEdges(g, batch)
		next := advance(e, batch, ng)
		requireSamePull(t, next.pull.Load(), rebuiltPull(e, ng, Config{Workers: 2, shards: 5, tileSourceWidth: 128}))
		g, e = ng, next
	}
	runConcurrently(t, e, refCases(g), 3)
	wg.Wait()
}

// TestAdvanceSharesRunStates pins the run-state handover: an engine without
// a pull index has nothing to advance; one with an index hands its successor
// the very free list it uses (and keeps using it — Advance writes nothing of
// its receiver), parked states pin no engine, and runs on either version
// take the parked states, clean, instead of allocating.
func TestAdvanceSharesRunStates(t *testing.T) {
	g := graph.Kronecker("kronecker", 9, 8, 12)
	e := New(g, Config{Workers: 2, shards: 3})
	batch := randomEdges(rand.New(rand.NewSource(1)), g.V, 12)
	if succ, touched := e.Advance(batch); succ != nil || touched != 0 {
		t.Fatalf("Advance without a pull index = %v, %d touched; want nil, 0", succ, touched)
	}
	runConcurrently(t, e, refCases(g), 2)
	parked := parkedStates(e)
	if len(parked) == 0 {
		t.Fatal("no state parked after the warm-up runs")
	}
	forcePull(e)
	ng := insertEdges(g, batch)
	next := advance(e, batch, ng)
	for _, cur := range []struct {
		e *Engine
		g *graph.CSR
	}{{next, ng}, {e, g}, {next, ng}} {
		runConcurrently(t, cur.e, refCases(cur.g), 1)
		now := parkedStates(cur.e)
		if len(now) != len(parked) {
			t.Fatalf("%d states parked after a run, want the %d parked before Advance", len(now), len(parked))
		}
		for _, rs := range now {
			if !slices.Contains(parked, rs) {
				t.Fatal("a run allocated a state although the shared list had one parked")
			}
			if rs.e != nil {
				t.Fatal("a parked state still points at an engine")
			}
			if err := stateIsClean(rs); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIndexBuildAttribution: the superstep whose contribution phase built a
// lazy index carries index_build_ns, no larger
// than the phase it sits in, and no other superstep does — neither later in
// that run, nor in a second run, nor on an engine whose index was carried.
// pr's dense supersteps build the pull index; cc pinned to push streams its
// all-active first frontier, which builds the sub-CSRs.
func TestIndexBuildAttribution(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	builds := func(e *Engine, kernel string, dir Direction, phase string) (n int) {
		k, err := algorithms.New(kernel)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		opts := forceDir(dir)
		opts.Trace = tr
		if _, err := e.RunCtx(context.Background(), k, 0, 5, opts); err != nil {
			t.Fatal(err)
		}
		for i, sp := range tr.Spans() {
			ns, ok := sp.Attrs["index_build_ns"].(int64)
			if !ok {
				continue
			}
			n++
			if i != 0 || ns <= 0 || ns > sp.Attrs[phase].(int64) {
				t.Fatalf("span %d: index_build_ns = %d inside %s = %v", i, ns, phase, sp.Attrs[phase])
			}
		}
		return n
	}
	for _, c := range []struct {
		kernel string
		dir    Direction
		phase  string
	}{{"pr", DirAuto, "pull_ns"}, {"cc", DirPush, "stream_ns"}} {
		e := New(g, Config{Workers: 2})
		if n := builds(e, c.kernel, c.dir, c.phase); n != 1 {
			t.Fatalf("%s: first run attributed %d index builds, want 1", c.phase, n)
		}
		if n := builds(e, c.kernel, c.dir, c.phase); n != 0 {
			t.Fatalf("%s: second run attributed %d index builds, want 0", c.phase, n)
		}
	}
	e := New(g, Config{Workers: 2})
	forcePull(e)
	batch := randomEdges(rand.New(rand.NewSource(2)), g.V, 8)
	next := advance(e, batch, insertEdges(g, batch))
	if n := builds(next, "pr", DirAuto, "pull_ns"); n != 0 {
		t.Fatalf("carried index: run attributed %d index builds, want 0", n)
	}
}
