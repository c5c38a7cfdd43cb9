package core

import (
	"runtime"
	"sync"
	"testing"

	"piccolo/internal/accel"
	"piccolo/internal/graph"
)

// TestTilingReuseConcurrentRuns runs the same graph on several goroutines
// at once, each at its own tile width, so runs borrow tilings that another
// run on this graph has just returned. Under -race this is the test of the
// lending itself; the digests show no run saw another's tiles.
func TestTilingReuseConcurrentRuns(t *testing.T) {
	g := smallGraph()
	cfgs := []Config{
		{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, TileScale: 4},
		{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, TileScale: 16},
		{System: accel.GraphDynsCache, Kernel: "cc", Scale: graph.ScaleTiny, Src: -1, TileScale: 1},
		{System: accel.NMP, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, Untiled: true},
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = resultDigest(MustRun(cfg, g))
	}

	const rounds = 3
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := Run(cfg, g)
				if err != nil {
					t.Errorf("config %d: %v", i, err)
					return
				}
				if got := resultDigest(res); got != want[i] {
					t.Errorf("config %d round %d: digest %s, alone %s", i, r, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunAllocationBudget bounds what one warmed simulation allocates, on
// the job the Fig. 10 sweep runs most (Piccolo at ×4 tiles, TW at tiny
// scale, here with bfs). Before tilings were lent from run to run this job
// allocated ≈ 680 KB, two thirds of it the tiling's private copy of the
// edge list; now it is ≈ 210 KB of per-run vectors, event queue and request
// free-list. The bound sits between the two so that the copy cannot come
// back unnoticed.
func TestRunAllocationBudget(t *testing.T) {
	const budget = 400 << 10
	ds, err := graph.ByName("TW")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Build(graph.ScaleTiny)
	cfg := Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, TileScale: 4}
	MustRun(cfg, g) // warm: the lent tiling grows to this graph once

	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		MustRun(cfg, g)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per warmed run (budget %d)", perRun, budget)
	if perRun > budget {
		t.Errorf("a warmed core.Run allocates %d bytes, budget %d: is something copying the edge list per run again?", perRun, budget)
	}
}
