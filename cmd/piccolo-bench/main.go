// Command piccolo-bench regenerates every table and figure of the paper's
// evaluation (§VII, §VIII) as text tables, and optionally as a markdown
// report (one table per experiment ID of DESIGN.md §4). Simulations
// run in parallel across -workers cores through the sweep runner
// (DESIGN.md §7); results are cached across figures, so overlapping
// figures (Fig. 10/12/13/14 share their baselines) simulate each cell
// once.
//
// The host-executor experiment id "engine" runs the five kernels
// functionally (no timing model) on a Kronecker graph and a dataset proxy,
// with -engine selecting the serial reference loop or the sharded parallel
// engine (DESIGN.md §9) and -workers its width — the quick way to see the
// host-side speedup measured rigorously by internal/engine's benchmarks.
//
// The -updates mode benchmarks the streaming subsystem (DESIGN.md §10)
// instead of the figure suite: it converges each kernel on a Kronecker
// graph, then streams small edge batches through a stream.DynamicEngine
// twice — once with incremental repair, once forced to full recompute —
// and reports the per-round times and the incremental speedup (the CI
// bench artifact captures this table).
//
// Usage:
//
//	piccolo-bench [-scale tiny|small|medium] [-workers N] [-only fig10,fig14]
//	              [-engine serial|parallel] [-md out.md]
//	piccolo-bench -updates [-update-scale 18] [-update-rounds 5] [-workers N]
//
// Either mode accepts -cpuprofile and -memprofile to capture pprof
// profiles of the run — the way to profile the engine and streaming hot
// loops against realistic workloads without editing test code:
//
//	piccolo-bench -only engine -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/experiments"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
	"piccolo/internal/stats"
	"piccolo/internal/stream"
)

func main() {
	scaleFlag := flag.String("scale", "small", "dataset/capacity scale: tiny, small, medium")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig10,fig19b); empty = all")
	mdPath := flag.String("md", "", "also write a markdown report to this path")
	prIters := flag.Int("pr-iters", 3, "PageRank iteration cap")
	workers := flag.Int("workers", 0, "parallel simulation/engine workers; <= 0 selects GOMAXPROCS")
	engineKind := flag.String("engine", "parallel", `host executor for the "engine" experiment: serial or parallel`)
	updates := flag.Bool("updates", false, "benchmark streaming updates (incremental vs full recompute) instead of the figure suite")
	updateScale := flag.Int("update-scale", 18, "Kronecker scale of the -updates graph (2^scale vertices)")
	updateRounds := flag.Int("update-rounds", 5, "update batches per kernel in -updates mode")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	if *engineKind != "serial" && *engineKind != "parallel" {
		fmt.Fprintf(os.Stderr, "unknown -engine %q (want serial or parallel)\n", *engineKind)
		os.Exit(2)
	}
	sc, err := graph.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
	if *updates {
		fmt.Println(updatesTable(*updateScale, *updateRounds, *workers))
		return
	}
	r := runner.New(*workers)
	o := experiments.Options{Scale: sc, PRIters: *prIters, Runner: r}

	type exp struct {
		id  string
		run func() *stats.Table
	}
	all := []exp{
		{"table2", func() *stats.Table { return experiments.Table2(o) }},
		{"fig3", func() *stats.Table { t, _ := experiments.Fig3(o); return t }},
		{"fig9", func() *stats.Table { t, _ := experiments.Fig9(o); return t }},
		{"fig10", func() *stats.Table { t, _ := experiments.Fig10(o); return t }},
		{"fig11", func() *stats.Table { t, _ := experiments.Fig11(o); return t }},
		{"fig12", func() *stats.Table { t, _ := experiments.Fig12(o); return t }},
		{"fig13", func() *stats.Table { t, _ := experiments.Fig13(o); return t }},
		{"fig14", func() *stats.Table { t, _ := experiments.Fig14(o); return t }},
		{"area", experiments.AreaTable},
		{"fig15", func() *stats.Table { t, _ := experiments.Fig15(o); return t }},
		{"fig16", func() *stats.Table { t, _ := experiments.Fig16(o); return t }},
		{"fig17", func() *stats.Table { t, _ := experiments.Fig17(o); return t }},
		{"fig18", func() *stats.Table { t, _ := experiments.Fig18(o); return t }},
		{"fig19a", func() *stats.Table { t, _ := experiments.Fig19a(o); return t }},
		{"fig19b", func() *stats.Table { t, _ := experiments.Fig19b(o); return t }},
		{"fig20a", func() *stats.Table { t, _ := experiments.Fig20a(o); return t }},
		{"fig20b", func() *stats.Table { t, _ := experiments.Fig20b(o); return t }},
		{"engine", func() *stats.Table { return engineTable(sc, *engineKind, *workers) }},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# Piccolo reproduction — measured results (scale=%s)\n\n", *scaleFlag)
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		tbl := e.run()
		fmt.Printf("%s\n(%s in %.1fs)\n\n", tbl, e.id, time.Since(start).Seconds())
		md.WriteString(tbl.Markdown())
		md.WriteString("\n")
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *mdPath, err)
			stopProfiles() // os.Exit skips the deferred flush
			os.Exit(1)
		}
		fmt.Printf("markdown report written to %s\n", *mdPath)
	}
	s := r.Stats()
	fmt.Printf("runner: %d workers, %d simulations, %d cache hits (%.1f%% hit rate)\n",
		r.Workers(), s.Misses, s.Hits, 100*s.HitRate())
}

// engineTable times the five kernels on the host executor selected by
// -engine: wall time, iterations, edge visits and throughput per workload.
// Both executors produce bit-identical results (the §9 determinism
// contract), so the table's Prop-derived columns never depend on the
// executor — only the milliseconds do.
func engineTable(sc graph.Scale, kind string, workers int) *stats.Table {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	kronScale := map[graph.Scale]int{graph.ScaleTiny: 12, graph.ScaleSmall: 15, graph.ScaleMedium: 17}[sc]
	workloads := []*graph.CSR{
		graph.Kronecker(fmt.Sprintf("KN%d", kronScale), kronScale, 16, 42),
		mustDataset("SW", sc),
	}
	t := stats.NewTable(fmt.Sprintf("Host executor (%s)", kind),
		"graph", "kernel", "iters", "edge visits", "ms", "MTEPS")
	for _, g := range workloads {
		src, _ := graph.HighestDegreeVertex(g)
		var eng *engine.Engine
		if kind == "parallel" {
			eng = engine.New(g, engine.Config{Workers: workers})
			// Warm once so the timed rows measure steady state, not the
			// lazy sub-CSR build and first buffer allocations (the serial
			// rows have no equivalent one-time cost).
			eng.Run(algorithms.All()[0], src, 1)
		}
		for _, k := range algorithms.All() {
			maxIters := engine.DefaultMaxIters
			if k.Descriptor().AllActive {
				maxIters = 40
			}
			start := time.Now()
			var res *algorithms.ReferenceResult
			if kind == "serial" {
				res = algorithms.RunReference(g, k, src, maxIters)
			} else {
				res = eng.Run(k, src, maxIters)
			}
			el := time.Since(start)
			t.AddRow(g.Name, k.Name(), fmt.Sprintf("%d", res.Iterations),
				stats.I(res.EdgeVisits), stats.F(float64(el.Microseconds())/1000),
				stats.F(float64(res.EdgeVisits)/el.Seconds()/1e6))
		}
	}
	if kind == "parallel" {
		t.AddNote("engine: %d workers, results bit-identical to -engine serial", workers)
	}
	return t
}

// updatesTable measures the streaming steady state on a Kronecker graph:
// per kernel, converge once, then apply `rounds` batches of 64 random edge
// insertions, timing (update + re-query) through incremental repair versus
// through a repair-disabled DynamicEngine (a full parallel-engine run on
// the materialized graph per round, including the engine rebuild an
// immutable-CSR system would pay). Both paths produce bit-identical
// properties — verified here after the last round — so the speedup column
// buys nothing in accuracy. PageRank is reported separately: its exact
// query is always a full run (DESIGN.md §10), so the incremental side is
// the delta-PageRank approximation.
func updatesTable(scale, rounds, workers int) *stats.Table {
	const batchEdges = 64
	g := graph.Kronecker(fmt.Sprintf("KN%d", scale), scale, 16, 42)
	rng := rand.New(rand.NewSource(7))
	batches := make([][]stream.EdgeUpdate, rounds)
	for i := range batches {
		batches[i] = make([]stream.EdgeUpdate, batchEdges)
		for j := range batches[i] {
			batches[i][j] = stream.EdgeUpdate{
				Src:    uint32(rng.Intn(int(g.V))),
				Dst:    uint32(rng.Intn(int(g.V))),
				Weight: uint8(1 + rng.Intn(255)),
			}
		}
	}

	run := func(d *stream.DynamicEngine, kernel string) (time.Duration, []uint64) {
		var prop []uint64
		start := time.Now()
		for _, b := range batches {
			if _, err := d.ApplyUpdates(b); err != nil {
				panic(err)
			}
			res, _, err := d.Query(kernel, -1, 0)
			if err != nil {
				panic(err)
			}
			prop = res.Prop
		}
		return time.Since(start), prop
	}

	t := stats.NewTable(fmt.Sprintf("Streaming updates (%s, %d edges, %d-edge batches)", g.Name, g.E(), batchEdges),
		"kernel", "mode", "incremental ms/round", "full ms/round", "speedup")
	var worst float64
	for _, kernel := range []string{"bfs", "cc", "sssp", "sswp"} {
		inc := stream.New(g, stream.Config{Workers: workers})
		full := stream.New(g, stream.Config{Workers: workers, FatFraction: -1})
		if _, _, err := inc.Query(kernel, -1, 0); err != nil { // converge, untimed
			panic(err)
		}
		if _, _, err := full.Query(kernel, -1, 0); err != nil {
			panic(err)
		}
		incTime, incProp := run(inc, kernel)
		fullTime, fullProp := run(full, kernel)
		for v := range fullProp {
			if incProp[v] != fullProp[v] {
				panic(fmt.Sprintf("%s: incremental diverged from full recompute at vertex %d", kernel, v))
			}
		}
		speedup := fullTime.Seconds() / incTime.Seconds()
		if worst == 0 || speedup < worst {
			worst = speedup
		}
		t.AddRow(kernel, "exact repair",
			stats.F(incTime.Seconds()*1000/float64(rounds)),
			stats.F(fullTime.Seconds()*1000/float64(rounds)),
			stats.F(speedup))
	}
	// PageRank: delta-PR residual propagation vs exact full recompute. The
	// push tolerance is scaled to the graph (L1 error ≤ eps·V/(1-d) ⇒ a
	// ~1e-4 relative total-mass error here) — at the exact-query tolerance
	// of 1e-9 the pushes cascade graph-wide and delta-PR loses to a full
	// run.
	{
		const prEps = 1e-5
		inc := stream.New(g, stream.Config{Workers: workers})
		full := stream.New(g, stream.Config{Workers: workers, FatFraction: -1})
		if _, _, err := inc.ApproxPageRank(prEps); err != nil {
			panic(err)
		}
		if _, _, err := full.Query("pr", -1, 0); err != nil {
			panic(err)
		}
		start := time.Now()
		for _, b := range batches {
			if _, err := inc.ApplyUpdates(b); err != nil {
				panic(err)
			}
			if _, _, err := inc.ApproxPageRank(prEps); err != nil {
				panic(err)
			}
		}
		incTime := time.Since(start)
		fullTime, _ := run(full, "pr")
		t.AddRow("pr", fmt.Sprintf("delta-PR (eps %.0e)", prEps),
			stats.F(incTime.Seconds()*1000/float64(rounds)),
			stats.F(fullTime.Seconds()*1000/float64(rounds)),
			stats.F(fullTime.Seconds()/incTime.Seconds()))
	}
	t.AddNote("full = repair-disabled DynamicEngine: engine rebuild + run on the materialized graph per round")
	t.AddNote("exact-repair results verified bit-identical to full recompute; worst exact speedup %.1fx", worst)
	return t
}

// startProfiles begins the CPU profile and returns the finalizer that
// stops it and dumps the heap profile; both are no-ops for empty paths.
// Unusable paths are flag errors, so they exit immediately; failures while
// finalizing only warn — the benchmark output already happened.
func startProfiles(cpuPath, memPath string) func() {
	var stopCPU func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
			stopCPU = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			f.Close()
			memPath = ""
		}
	}
}

func mustDataset(name string, sc graph.Scale) *graph.CSR {
	d, err := graph.ByName(name)
	if err != nil {
		panic(err)
	}
	return d.Build(sc)
}
