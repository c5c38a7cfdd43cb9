package core

import (
	"runtime"
	"sync"
	"testing"

	"piccolo/internal/accel"
	"piccolo/internal/graph"
)

// MustRun is Run for configs known to be valid; it panics on an error.
func MustRun(cfg Config, g *graph.CSR) *Result {
	r, err := Run(cfg, g)
	if err != nil {
		panic(err)
	}
	return r
}

// TestConcurrentRunsShareOneCSR runs the same graph on several goroutines
// at once, each at its own tile width: every run walks the one CSR it is
// given and writes only its own cursors. Under -race this is the test that
// the CSR is only read; the digests show no run saw another's state.
func TestConcurrentRunsShareOneCSR(t *testing.T) {
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
// scale, here with bfs). A run that copied the edge list into per-tile
// buffers allocated ≈ 680 KB; walking the CSR's rows through per-source
// cursors, a run allocates ≈ 250 KB of per-run vectors, cursors, event
// queue and request free-list. The bound sits between the two so that a
// per-run copy of the edges cannot come back unnoticed.
func TestRunAllocationBudget(t *testing.T) {
	const budget = 400 << 10
	ds, err := graph.ByName("TW")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Build(graph.ScaleTiny)
	cfg := Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1, TileScale: 4}
	MustRun(cfg, g) // warm

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
