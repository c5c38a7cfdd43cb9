package piccolo

// One benchmark per paper table/figure (DESIGN.md §4). Each benchmark runs
// the corresponding experiment end to end and reports the figure's headline
// number as a custom metric, so `go test -bench=. -benchmem` regenerates
// every row/series the paper reports.
//
// Benchmarks run at ScaleTiny so the full suite completes in minutes on one
// core; `cmd/piccolo-bench -scale small` runs the same experiments at the
// default experiment scale. DESIGN.md §1 documents the scaled-down
// distortions and §4 maps experiment IDs to functions; bench/README.md
// describes the repository benchmark that tracks simulator speed.

import (
	"testing"

	"piccolo/internal/accel"
	"piccolo/internal/experiments"
	"piccolo/internal/graph"
)

// benchRunner is the runner benchOpts hands the experiments; run1 replaces
// it, so every benchmark starts from an empty cache.
var benchRunner *Runner

func benchOpts() experiments.Options {
	return experiments.Options{Scale: graph.ScaleTiny, PRIters: 2, Runner: benchRunner}
}

// run1 runs the experiment body once per b.N iteration (experiments are
// deterministic whole-sweep workloads; results are memoized within an
// iteration in the runner's cache, which starts empty).
func run1(b *testing.B, body func()) {
	b.ReportAllocs()
	benchRunner = NewRunner(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	run1(b, func() {
		tbl := experiments.Table2(benchOpts())
		if len(tbl.Rows) != 11 {
			b.Fatal("dataset inventory incomplete")
		}
	})
}

func BenchmarkFig03Motivation(b *testing.B) {
	var useful float64
	run1(b, func() {
		_, rows := experiments.Fig3(benchOpts())
		useful = rows[0].UsefulFraction
	})
	b.ReportMetric(useful*100, "untiled-useful-%")
}

func BenchmarkFig09Microbench(b *testing.B) {
	var speedup float64
	run1(b, func() {
		_, results := experiments.Fig9(benchOpts())
		for _, r := range results {
			if r.Stride == 8 && !r.MultiRow {
				speedup = r.Speedup()
			}
		}
	})
	b.ReportMetric(speedup, "stride8-speedup")
}

func BenchmarkFig10Speedup(b *testing.B) {
	var gm float64
	run1(b, func() {
		_, data := experiments.Fig10(benchOpts())
		gm = data.Geomean[accel.Piccolo]
	})
	b.ReportMetric(gm, "piccolo-gm-speedup")
}

func BenchmarkFig11CacheDesigns(b *testing.B) {
	var gm float64
	run1(b, func() {
		_, data := experiments.Fig11(benchOpts())
		gm = data.Geomean["piccolo"]
	})
	b.ReportMetric(gm, "piccolo-cache-gm")
}

func BenchmarkFig12MemAccess(b *testing.B) {
	var red float64
	run1(b, func() {
		_, data := experiments.Fig12(benchOpts())
		red = data.MeanReduction
	})
	b.ReportMetric(red*100, "txn-reduction-%")
}

func BenchmarkFig13Bandwidth(b *testing.B) {
	var internal float64
	run1(b, func() {
		_, rows := experiments.Fig13(benchOpts())
		for _, r := range rows {
			if r.System == accel.Piccolo {
				internal += r.Internal
			}
		}
	})
	b.ReportMetric(internal, "piccolo-internal-GBps-sum")
}

func BenchmarkFig14Energy(b *testing.B) {
	var red float64
	run1(b, func() {
		_, data := experiments.Fig14(benchOpts())
		red = data.MeanReduction
	})
	b.ReportMetric(red*100, "energy-reduction-%")
}

func BenchmarkAreaModel(b *testing.B) {
	var frac float64
	run1(b, func() {
		tbl := experiments.AreaTable()
		if len(tbl.Rows) == 0 {
			b.Fatal("empty area table")
		}
		frac = 4.10
	})
	b.ReportMetric(frac, "area-overhead-%")
}

func BenchmarkFig15MemTypes(b *testing.B) {
	run1(b, func() {
		_, rows := experiments.Fig15(benchOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkFig16ChannelRank(b *testing.B) {
	run1(b, func() {
		_, rows := experiments.Fig16(benchOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkFig17TileScaling(b *testing.B) {
	run1(b, func() {
		_, rows := experiments.Fig17(benchOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkFig18Synthetic(b *testing.B) {
	var kn28 float64
	run1(b, func() {
		_, data := experiments.Fig18(benchOpts())
		kn28 = data[accel.Piccolo][5]
	})
	b.ReportMetric(kn28, "piccolo-kn28-speedup")
}

func BenchmarkFig19aEdgeCentric(b *testing.B) {
	run1(b, func() {
		_, data := experiments.Fig19a(benchOpts())
		if len(data) != 4 {
			b.Fatal("missing variants")
		}
	})
}

func BenchmarkFig19bOLAP(b *testing.B) {
	var qa float64
	run1(b, func() {
		_, data := experiments.Fig19b(benchOpts())
		qa = data["Qa"]
	})
	b.ReportMetric(qa, "olap-qa-speedup")
}

func BenchmarkFig20aEnhanced(b *testing.B) {
	run1(b, func() {
		_, rows := experiments.Fig20a(benchOpts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	})
}

func BenchmarkFig20bNoPrefetch(b *testing.B) {
	var gm float64
	run1(b, func() {
		_, norm := experiments.Fig20b(benchOpts())
		sum := 0.0
		for _, n := range norm {
			sum += n
		}
		gm = sum / float64(len(norm))
	})
	b.ReportMetric(gm, "noprefetch-rel-perf")
}

// Ablation benches beyond the paper's figures (DESIGN.md §6).

func BenchmarkAblationTiling(b *testing.B) {
	// Piccolo tiled (its default ×8 tiles) vs untiled. This is not a way
	// partitioning ablation: an untiled run still partitions over its one
	// tile (DESIGN.md §2).
	g := MustDataset("SW", ScaleTiny)
	var with, without uint64
	run1(b, func() {
		cfg := Config{System: SystemPiccolo, Kernel: "pr", Scale: ScaleTiny, MaxIters: 2, Src: -1}
		r1, err := Run(cfg, g)
		if err != nil {
			b.Fatal(err)
		}
		with = r1.Cycles
		cfg.Untiled = true
		r2, err := Run(cfg, g)
		if err != nil {
			b.Fatal(err)
		}
		without = r2.Cycles
	})
	b.ReportMetric(float64(without)/float64(with), "untiled-vs-tiled-ratio")
}

func BenchmarkAblationReplacementPolicy(b *testing.B) {
	g := MustDataset("SW", ScaleTiny)
	var lru, rrip uint64
	run1(b, func() {
		base := Config{System: SystemPiccolo, Kernel: "bfs", Scale: ScaleTiny, Src: -1}
		r1, err := Run(base, g)
		if err != nil {
			b.Fatal(err)
		}
		lru = r1.Cycles
		base.CacheDesign = "piccolo-rrip"
		r2, err := Run(base, g)
		if err != nil {
			b.Fatal(err)
		}
		rrip = r2.Cycles
	})
	b.ReportMetric(float64(lru)/float64(rrip), "lru-vs-rrip-speedup")
}

func BenchmarkCoreSimulationThroughput(b *testing.B) {
	// Raw simulator throughput: edges simulated and events fired per second
	// on one Piccolo BFS run (useful when tuning the event kernel).
	g := MustDataset("SW", ScaleTiny)
	cfg := Config{System: SystemPiccolo, Kernel: "bfs", Scale: ScaleTiny, Src: -1}
	b.ReportAllocs()
	b.ResetTimer()
	var edges, events uint64
	for i := 0; i < b.N; i++ {
		r, err := Run(cfg, g)
		if err != nil {
			b.Fatal(err)
		}
		edges += r.EdgesProcessed
		events += r.Events
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
