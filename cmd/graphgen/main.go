// Command graphgen generates synthetic graphs — the Table II dataset
// proxies or custom generator invocations — into the compressed on-disk
// segment format (PICSEG01, DESIGN.md §14) that piccolo-sim -graph and
// piccolo.LoadGraph read and piccolo-serve -graph-dir mmaps and serves
// without a rebuild.
//
// Usage:
//
//	graphgen -dataset FS -scale small -out fs.pseg
//	graphgen -kind kronecker -vscale 14 -edgefactor 16 -seed 7 -out kn.pseg
package main

import (
	"flag"
	"fmt"
	"os"

	"piccolo"
	"piccolo/internal/graph"
)

func main() {
	dataset := flag.String("dataset", "", "Table II proxy name (UU, TW, SW, FS, PP, WS26..KN28)")
	scaleFlag := flag.String("scale", "small", "tiny, small, medium (for -dataset)")
	kind := flag.String("kind", "", "custom generator: kronecker, uniform, ws")
	vscale := flag.Int("vscale", 12, "kronecker: log2 vertex count; others: vertex count = 1<<vscale")
	edgeFactor := flag.Int("edgefactor", 8, "edges per vertex")
	beta := flag.Float64("beta", 0.1, "watts-strogatz rewiring probability")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "out.pseg", "output segment path")
	flag.Parse()

	var g *piccolo.Graph
	switch {
	case *dataset != "":
		sc, err := graph.ParseScale(*scaleFlag)
		if err != nil {
			fail("%v", err)
		}
		if g, err = piccolo.Dataset(*dataset, sc); err != nil {
			fail("%v", err)
		}
	case *kind == "kronecker":
		g = piccolo.GenerateKronecker("kronecker", *vscale, *edgeFactor, *seed)
	case *kind == "uniform":
		g = piccolo.GenerateUniform("uniform", 1<<*vscale, float64(*edgeFactor), *seed)
	case *kind == "ws":
		g = piccolo.GenerateWattsStrogatz("ws", 1<<*vscale, *edgeFactor, *beta, *seed)
	default:
		fail("need -dataset or -kind")
	}
	if err := piccolo.WriteSegmentFile(g, *out); err != nil {
		fail("writing %s: %v", *out, err)
	}
	fmt.Printf("wrote %s: V=%d E=%d avg-deg=%.2f\n", *out, g.V, g.E(), g.AvgDegree())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
