package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"piccolo/internal/graph"
)

// subCSRsFromRows builds the sub-CSRs straight from a graph's rows, in two
// passes over ScanRows (count, then fill): the reference the tile transpose
// of buildDense must reproduce field for field. Grouping by "same source as
// the last edge into this shard" is insensitive to a hub row arriving in
// several ScanRows pieces.
func subCSRsFromRows(st graph.GraphStore, owner []uint16, shards int) *denseIndex {
	edges := make([]uint64, shards)
	rows := make([]uint64, shards)
	last := make([]int64, shards)
	for s := range last {
		last[s] = -1
	}
	st.ScanRows(func(u uint32, dsts []uint32, _ []uint8) {
		for _, v := range dsts {
			s := owner[v]
			edges[s]++
			if last[s] != int64(u) {
				last[s] = int64(u)
				rows[s]++
			}
		}
	})
	dense := make([]denseShard, shards)
	for s := range dense {
		dense[s] = denseShard{
			srcs:   make([]uint32, 0, rows[s]),
			rowPtr: append(make([]uint64, 0, rows[s]+1), 0),
			col:    make([]uint32, 0, edges[s]),
			weight: make([]uint8, 0, edges[s]),
		}
		last[s] = -1
	}
	st.ScanRows(func(u uint32, dsts []uint32, ws []uint8) {
		for i, v := range dsts {
			s := owner[v]
			ds := &dense[s]
			if last[s] != int64(u) {
				last[s] = int64(u)
				ds.srcs = append(ds.srcs, u)
				ds.rowPtr = append(ds.rowPtr, ds.rowPtr[len(ds.rowPtr)-1])
			}
			ds.col = append(ds.col, v)
			ds.weight = append(ds.weight, ws[i])
			ds.rowPtr[len(ds.rowPtr)-1]++
		}
	})
	idx := &denseIndex{shards: dense}
	for s := range dense {
		idx.srcsTotal += uint64(len(dense[s].srcs))
	}
	return idx
}

// requireSameDense fails naming the first shard and field that differ.
func requireSameDense(t *testing.T, got, want *denseIndex) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.srcsTotal != want.srcsTotal {
		t.Fatalf("srcsTotal %d, reference %d", got.srcsTotal, want.srcsTotal)
	}
	for s, w := range want.shards {
		g := got.shards[s]
		for _, f := range []struct {
			name string
			same bool
		}{
			{"srcs", reflect.DeepEqual(g.srcs, w.srcs)}, {"rowPtr", reflect.DeepEqual(g.rowPtr, w.rowPtr)},
			{"col", reflect.DeepEqual(g.col, w.col)}, {"weight", reflect.DeepEqual(g.weight, w.weight)},
		} {
			if !f.same {
				t.Fatalf("shard %d: %s differs from the reference", s, f.name)
			}
		}
	}
	t.Fatal("sub-CSRs differ from the reference")
}

// TestSubCSRsFromTiles requires the sub-CSRs buildDense derives from the pull
// tiles to equal the ones built straight from the graph's rows, on a CSR and
// on a segment whose tiny blocks split the hub rows, at 1 and 5 shards and
// 64-wide and default tiles, and on an engine reached by Advance. No edge
// leaves the upper half of the vertex range, so 64-wide tiles there are
// empty; the graph holds multi-edges (also at other weights), self-loops and
// a hub whose row spans several blocks.
func TestSubCSRsFromTiles(t *testing.T) {
	const v = 512
	rng := rand.New(rand.NewSource(38))
	var edges []graph.Edge
	for i := 0; i < 2500; i++ {
		e := graph.Edge{Src: uint32(rng.Intn(v / 2)), Dst: uint32(rng.Intn(v)), Weight: uint8(1 + rng.Intn(255))}
		switch rng.Intn(10) {
		case 0:
			e.Dst = e.Src
		case 1:
			if i > 0 {
				e.Src, e.Dst = edges[rng.Intn(i)].Src, edges[rng.Intn(i)].Dst
			}
		case 2:
			e.Src = 7 // the hub
		}
		edges = append(edges, e)
	}
	g := graph.FromEdges("tiles", v, edges)
	if g.OutDeg(7) < 4*64 {
		t.Fatalf("hub has %d out-edges, too few to span blocks", g.OutDeg(7))
	}
	seg := openTestSegment(t, g, 64)
	batch := randomEdges(rng, v/2, 300)
	ng := insertEdges(g, batch)
	for _, shards := range []int{1, 5} {
		for _, width := range []uint32{64, 0} {
			cfg := Config{Workers: 2, shards: shards, tileSourceWidth: width}
			t.Run(fmt.Sprintf("shards=%d/tile=%d", shards, width), func(t *testing.T) {
				for _, c := range []struct {
					name string
					e    *Engine
				}{{"csr", New(g, cfg)}, {"segment", NewFromStore(seg, cfg)}} {
					t.Run(c.name, func(t *testing.T) {
						got := c.e.buildDense(c.e.loadPull(2), 2)
						requireSameDense(t, got, subCSRsFromRows(graph.AsStore(g), c.e.owner, c.e.shards))
					})
				}
				t.Run("advanced", func(t *testing.T) {
					prev := New(g, cfg)
					e, _ := prev.Advance(batch)
					got := e.buildDense(e.loadPull(2), 2)
					requireSameDense(t, got, subCSRsFromRows(graph.AsStore(ng), e.owner, e.shards))
				})
			})
		}
	}
}
