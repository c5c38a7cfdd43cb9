// Engine demo: run PageRank and BFS on a power-law Kronecker graph with
// the sharded parallel execution engine, verify the results are
// bit-identical to the serial reference executor at every worker count,
// and rank the top vertices with kernel-appropriate TopK semantics.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"piccolo"
)

func main() {
	g := piccolo.GenerateKronecker("KN15", 15, 16, 42)
	fmt.Printf("graph %s: %d vertices, %d edges (power-law Kronecker)\n\n", g.Name, g.V, g.E())

	for _, kernel := range []string{"pr", "bfs"} {
		k, err := piccolo.NewKernel(kernel)
		if err != nil {
			log.Fatal(err)
		}
		maxIters := 40
		if !k.Descriptor().AllActive {
			maxIters = 0 // frontier kernels run to convergence
		}
		// Serial ground truth.
		start := time.Now()
		refProp, refIters, err := piccolo.Reference(kernel, g, 0, itersOrDefault(maxIters))
		if err != nil {
			log.Fatal(err)
		}
		serial := time.Since(start)
		fmt.Printf("%-4s serial reference: %3d iterations in %8.2fms\n",
			kernel, refIters, ms(serial))

		// The parallel engine at increasing widths: every run must be
		// bit-identical to the reference — that is the engine's contract.
		// One engine per width, timed in steady state (the sharding pass
		// and phase buffers amortize across runs, as in a serving process).
		var res *piccolo.KernelResult
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			e := piccolo.NewEngine(g, piccolo.EngineConfig{Workers: workers})
			e.Run(k, 0, itersOrDefault(maxIters)) // warm build + buffers
			start = time.Now()
			res = e.Run(k, 0, itersOrDefault(maxIters))
			el := time.Since(start)
			if res.Iterations != refIters {
				log.Fatalf("%s: %d iterations, reference %d", kernel, res.Iterations, refIters)
			}
			for v := range refProp {
				if res.Prop[v] != refProp[v] {
					log.Fatalf("%s: prop[%d] diverged from reference", kernel, v)
				}
			}
			fmt.Printf("%-4s parallel workers=%-2d %3d iterations in %8.2fms  (%.2fx, bit-identical)\n",
				kernel, workers, res.Iterations, ms(el), serial.Seconds()/el.Seconds())
		}

		top, err := piccolo.TopK(kernel, res.Prop, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s top-3: ", kernel)
		for _, vs := range top {
			fmt.Printf("v%d (%.4g)  ", vs.Vertex, vs.Score)
		}
		fmt.Print("\n\n")
	}
}

func itersOrDefault(maxIters int) int {
	if maxIters <= 0 {
		return 10000
	}
	return maxIters
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
