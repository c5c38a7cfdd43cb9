// Streaming demo: wrap a power-law Kronecker graph in a DynamicEngine,
// converge BFS and SSSP once, then stream batches of edge insertions and
// watch incremental repair serve each post-update query in a fraction of a
// full recompute — while staying bit-identical to a from-scratch run on
// the updated graph (DESIGN.md §10).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"piccolo"
)

func main() {
	g := piccolo.GenerateKronecker("KN16", 16, 16, 42)
	fmt.Printf("graph %s: %d vertices, %d edges (power-law Kronecker)\n\n", g.Name, g.V, g.E())

	d := piccolo.NewDynamicEngine(g, piccolo.StreamConfig{})
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()

	for _, kernel := range []string{"bfs", "sssp"} {
		// First query: a full run that seeds the repairable fixed point.
		start := time.Now()
		_, info, err := d.QueryCtx(ctx, kernel, -1, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s initial converge (%s) in %7.2fms\n", kernel, info.Mode, ms(time.Since(start)))

		for round := 1; round <= 3; round++ {
			batch := make([]piccolo.EdgeUpdate, 32)
			for i := range batch {
				batch[i] = piccolo.EdgeUpdate{
					Src:    uint32(rng.Intn(int(g.V))),
					Dst:    uint32(rng.Intn(int(g.V))),
					Weight: uint8(1 + rng.Intn(255)),
				}
			}
			ver, err := d.ApplyUpdates(batch)
			if err != nil {
				log.Fatal(err)
			}

			start = time.Now()
			res, info, err := d.QueryCtx(ctx, kernel, -1, 0)
			if err != nil {
				log.Fatal(err)
			}
			incr := time.Since(start)

			// The contract: identical bits to a from-scratch reference run
			// on the materialized post-update graph.
			start = time.Now()
			refProp, _, err := piccolo.Reference(kernel, d.Graph(), src(d, kernel), 10000)
			if err != nil {
				log.Fatal(err)
			}
			full := time.Since(start)
			for v := range refProp {
				if res.Prop[v] != refProp[v] {
					log.Fatalf("%s: prop[%d] diverged after update batch %d", kernel, v, ver)
				}
			}
			fmt.Printf("%-4s v%d +%2d edges: %-11s %7.2fms (full recompute %7.2fms, %5.1fx, bit-identical)\n",
				kernel, ver, len(batch), info.Mode, ms(incr), ms(full), full.Seconds()/incr.Seconds())
		}
		fmt.Println()
	}

	st := d.Stats()
	fmt.Printf("stats: %d batches, %d edges applied, %d incremental repairs, %d full recomputes, %d compactions\n",
		st.Version, st.EdgesApplied, st.IncrementalRepairs, st.FullRecomputes, st.Compactions)
}

// src mirrors the DynamicEngine's source canonicalization for the
// reference run, reading the kernel's descriptor instead of matching
// names: vertex-sourced kernels start at the current highest-out-degree
// vertex, source-free kernels at 0.
func src(d *piccolo.DynamicEngine, kernel string) uint32 {
	k, err := piccolo.NewKernel(kernel)
	if err != nil {
		log.Fatal(err)
	}
	if k.Descriptor().Source != piccolo.SourceVertex {
		return 0
	}
	v, _ := piccolo.HighestDegreeVertex(d.Graph())
	return v
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
