package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"piccolo/internal/graph"
)

// ownerOf maps every destination to the shard whose range holds it, reading
// the bounds linearly (carry's binary search is what it checks).
func ownerOf(bounds []uint32) []int {
	owner := make([]int, bounds[len(bounds)-1])
	for s := 0; s+1 < len(bounds); s++ {
		for v := bounds[s]; v < bounds[s+1]; v++ {
			owner[v] = s
		}
	}
	return owner
}

// subCSRsFromRows builds the sub-CSRs straight from a graph's rows, in two
// passes over ScanRows (count, then fill): the reference the tile transpose
// of buildDense must reproduce field for field. Grouping by "same source as
// the last edge into this shard" is insensitive to a hub row arriving in
// several ScanRows pieces.
func subCSRsFromRows(st graph.GraphStore, bounds []uint32) *denseIndex {
	shards := len(bounds) - 1
	owner := ownerOf(bounds)
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
	dense := make([]subCSR, shards)
	for s := range dense {
		dense[s] = subCSR{
			Src:       make([]uint32, 0, rows[s]),
			EdgeStart: append(make([]uint32, 0, rows[s]+1), 0),
			Dst:       make([]uint32, 0, edges[s]),
			W:         make([]uint8, 0, edges[s]),
		}
		last[s] = -1
	}
	st.ScanRows(func(u uint32, dsts []uint32, ws []uint8) {
		for i, v := range dsts {
			s := owner[v]
			ds := &dense[s]
			if last[s] != int64(u) {
				last[s] = int64(u)
				ds.Src = append(ds.Src, u)
				ds.EdgeStart = append(ds.EdgeStart, ds.EdgeStart[len(ds.EdgeStart)-1])
			}
			ds.Dst = append(ds.Dst, v)
			ds.W = append(ds.W, ws[i])
			ds.EdgeStart[len(ds.EdgeStart)-1]++
		}
	})
	idx := &denseIndex{shards: dense}
	for s := range dense {
		idx.srcsTotal += uint64(len(dense[s].Src))
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
			{"Src", reflect.DeepEqual(g.Src, w.Src)}, {"EdgeStart", reflect.DeepEqual(g.EdgeStart, w.EdgeStart)},
			{"Dst", reflect.DeepEqual(g.Dst, w.Dst)}, {"W", reflect.DeepEqual(g.W, w.W)},
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
						requireSameDense(t, c.e.buildDense(2), subCSRsFromRows(graph.AsStore(g), c.e.bounds))
					})
				}
				t.Run("advanced", func(t *testing.T) {
					prev := New(g, cfg)
					e, _ := prev.Advance(batch)
					requireSameDense(t, e.buildDense(2), subCSRsFromRows(graph.AsStore(ng), e.bounds))
				})
			})
		}
	}
}
