// Command piccolo-bench regenerates every table and figure of the paper's
// evaluation (§VII, §VIII) as text tables, and optionally as a markdown
// report (one table per experiment ID of DESIGN.md §4). Simulations
// run in parallel across -workers cores through the sweep runner
// (DESIGN.md §7); results are cached across figures, so overlapping
// figures (Fig. 10/12/13/14 share their baselines) simulate each cell
// once.
//
// Usage:
//
//	piccolo-bench [-scale tiny|small|medium] [-workers N] [-only fig10,fig14] [-md out.md]
//
// -cpuprofile and -memprofile capture pprof profiles of the run — the way
// to profile the simulator against a figure's workload without editing test
// code:
//
//	piccolo-bench -scale tiny -only fig10 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Host-side serving and engine performance is measured by the repository
// benchmark (bench/) and the Go microbenchmarks (go test -bench), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"piccolo/internal/experiments"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
	"piccolo/internal/stats"
)

func main() {
	scaleFlag := flag.String("scale", "small", "dataset/capacity scale: tiny, small, medium")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig10,fig19b); empty = all")
	mdPath := flag.String("md", "", "also write a markdown report to this path")
	prIters := flag.Int("pr-iters", 3, "PageRank iteration cap")
	workers := flag.Int("workers", 0, "parallel simulation workers; <= 0 selects GOMAXPROCS")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	sc, err := graph.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
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
