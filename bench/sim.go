package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/core"
	"piccolo/internal/experiments"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
	"piccolo/internal/stats"
)

// The simulator workload is the paper's Fig. 10 job matrix: 6 systems x 5
// kernels x dataset proxies, each cell searched over its system's tile
// widths, exactly the jobs experiments.Fig10 submits. A pass over all five
// proxies takes about 27 s on the 2-core reference box, so the matrix is
// cut by dataset column to fit -seconds: 4 s per column, the paper's column
// order. The job list is fixed work, identical whatever the seed: a
// deterministic simulator has no input to vary, and two commits can then be
// compared statistic by statistic.

var (
	fig10Kernels  = []string{"pr", "bfs", "cc", "sssp", "sswp"}
	fig10Datasets = []string{"UU", "TW", "SW", "FS", "PP"}
)

// tileCandidates is the per-system tile-width search space of §VII-A, as in
// internal/experiments (unexported there). 0 means untiled.
func tileCandidates(sys accel.System) []int {
	switch sys {
	case accel.Graphicionado, accel.GraphDynsSPM:
		return []int{1}
	case accel.PIM:
		return []int{0}
	case accel.GraphDynsCache:
		return []int{1, 2, 4, 8, 0}
	default:
		return []int{4, 8, 16, 0}
	}
}

// simSpec is what the parent asks the child to run.
type simSpec struct {
	Datasets []string `json:"datasets"`
	Kernels  []string `json:"kernels"`
	Scale    string   `json:"scale"`
	PRIters  int      `json:"pr_iters"`
	Workers  int      `json:"workers"`
	// OneTile keeps each system's first tile candidate only (-smoke: six
	// jobs).
	OneTile bool `json:"one_tile"`
	// Figures asks for Fig. 12 / Fig. 14 headline numbers from the warm
	// runner (traced run, full matrix only).
	Figures bool `json:"figures"`
}

type simJob struct {
	Label   string `json:"label"` // kernel/dataset/system/tile
	System  string `json:"system"`
	Kernel  string `json:"kernel"`
	Dataset string `json:"dataset"`
	Worker  int    `json:"worker"`
	StartNS int64  `json:"start_ns"` // since the sweep began
	HostNS  int64  `json:"host_ns"`
	Cycles  uint64 `json:"cycles"`
	Edges   uint64 `json:"edges"`
	Digest  string `json:"digest"` // of the job's simulated statistics
	Err     string `json:"err,omitempty"`

	job runner.Job
}

// simTotals sums Piccolo-system statistics over the sweep (simulated,
// exact).
type simTotals struct {
	CacheAccesses, CacheHits     uint64
	BytesFetched, BytesUseful    uint64
	ReadTxns, WriteTxns, RowActs uint64
	BusBusy, Cycles              uint64
	GatherScatterOps             uint64
	MSHRAllocs, MSHRMerges       uint64
	WindowStalls, StreamStalls   uint64
}

type simReport struct {
	SetupS       float64            `json:"setup_s"`
	SetupRuns    []float64          `json:"setup_runs"`
	WallS        float64            `json:"wall_s"`
	Jobs         []*simJob          `json:"jobs"`
	Invalid      []string           `json:"invalid,omitempty"` // jobs core.Validate rejected
	Geomean      map[string]float64 `json:"geomean"`           // Fig. 10 geomean speedup by system
	Piccolo      simTotals          `json:"piccolo"`
	CacheHits    uint64             `json:"cache_hits"`
	CacheMisses  uint64             `json:"cache_misses"`
	Fig12        float64            `json:"fig12,omitempty"`
	Fig14        float64            `json:"fig14,omitempty"`
	FiguresNote  string             `json:"figures_note,omitempty"`
	Fig10Crossed bool               `json:"fig10_crossed"` // geomeans equal experiments.Fig10's
}

func (s simSpec) scale() graph.Scale {
	sc, err := graph.ParseScale(s.Scale)
	if err != nil {
		panic(err) // the parent wrote it
	}
	return sc
}

// jobs enumerates the matrix in experiments.Fig10's order.
func (s simSpec) jobs() []*simJob {
	var out []*simJob
	for _, kernel := range s.Kernels {
		maxIters := 40
		if algorithms.MustDescriptor(kernel).AllActive { // capped at the PR budget, as in experiments
			maxIters = s.PRIters
		}
		for _, ds := range s.Datasets {
			for _, sys := range accel.Systems() {
				tiles := tileCandidates(sys)
				if s.OneTile {
					tiles = tiles[:1]
				}
				for _, tile := range tiles {
					out = append(out, &simJob{
						Label:  fmt.Sprintf("%s/%s/%s/x%d", kernel, ds, sys, tile),
						System: sys.String(), Kernel: kernel, Dataset: ds,
						job: runner.Job{Dataset: ds, Config: core.Config{
							System: sys, Kernel: kernel, Scale: s.scale(), MaxIters: maxIters,
							Src: -1, TileScale: tile, Untiled: tile == 0,
						}},
					})
				}
			}
		}
	}
	return out
}

// statsDigest hashes everything a simulated run reports: a simulator
// speed-up must leave every one of these unchanged.
func statsDigest(key string, r *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%+v|%+v|%+v|%d|%d|%d|%d", key, r.Cycles, r.Iterations,
		r.EdgesProcessed, r.SrcVisits, r.ApplyVisits, r.TopoBytes, r.Mem, r.Cache, r.Coll,
		r.DbgWindowStalls, r.DbgStreamStalls, r.DbgDrainForced, r.TileWidth)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// simChildMain is the body of the child process: build the graphs, sweep,
// validate, aggregate, print one JSON report.
func simChildMain(specJSON string) error {
	var sp simSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		return err
	}
	rep := &simReport{Geomean: map[string]float64{}}
	ctx := context.Background()

	// Set-up is building the dataset proxies. It is short, so it is done
	// three times on fresh runners and the median reported; the last
	// runner is the one the sweep uses.
	var r *runner.Runner
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r = runner.New(sp.Workers)
		for _, ds := range sp.Datasets {
			if _, err := r.Graph(ds, sp.scale()); err != nil {
				return err
			}
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
	}
	rep.SetupS = median(rep.SetupRuns)

	// The sweep: Workers goroutines take the next job in matrix order.
	jobs := sp.jobs()
	rep.Jobs = jobs
	var next atomic.Int64
	var wg sync.WaitGroup
	results := make([]*core.Result, len(jobs))
	t0 := time.Now()
	for w := 0; w < sp.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				start := time.Now()
				res, err := r.Run(ctx, j.job)
				j.Worker, j.StartNS, j.HostNS = w, start.Sub(t0).Nanoseconds(), time.Since(start).Nanoseconds()
				if err != nil {
					j.Err = err.Error()
					continue
				}
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	rep.WallS = time.Since(t0).Seconds()
	st := r.Stats()
	rep.CacheHits, rep.CacheMisses = st.Hits, st.Misses

	// After the window: every result is fetched again through the runner
	// cache and checked bit for bit against the reference executor.
	for i, j := range jobs {
		if results[i] == nil {
			continue
		}
		res, err := r.Run(ctx, j.job)
		if err == nil {
			var g *graph.CSR
			if g, err = r.Graph(j.Dataset, sp.scale()); err == nil {
				err = core.Validate(j.job.Config, g, res)
			}
		}
		if err != nil {
			rep.Invalid = append(rep.Invalid, j.Label+": "+err.Error())
			continue
		}
		j.Cycles, j.Edges = res.Cycles, res.EdgesProcessed
		j.Digest = statsDigest(j.job.Key(), res)
		if j.job.Config.System == accel.Piccolo {
			t := &rep.Piccolo
			t.CacheAccesses += res.Cache.Accesses
			t.CacheHits += res.Cache.Hits
			t.BytesFetched += res.Cache.BytesFetched
			t.BytesUseful += res.Cache.BytesUseful
			t.ReadTxns += res.Mem.ReadTxns
			t.WriteTxns += res.Mem.WriteTxns
			t.RowActs += res.Mem.NACT
			t.BusBusy += res.Mem.BusBusy
			t.Cycles += res.Cycles
			t.GatherScatterOps += res.Mem.NGather + res.Mem.NScatter
			t.MSHRAllocs += res.Coll.Allocs
			t.MSHRMerges += res.Coll.Merges
			t.WindowStalls += res.DbgWindowStalls
			t.StreamStalls += res.DbgStreamStalls
		}
	}
	st = r.Stats()
	rep.CacheHits = st.Hits
	if st.Misses != rep.CacheMisses {
		return fmt.Errorf("re-fetching results executed %d more simulations: the result cache lost entries", st.Misses-rep.CacheMisses)
	}

	// Fig. 10's aggregation: best tile per cell, speed-up over
	// GraphDyns(Cache), geomean per system.
	best := map[string]uint64{} // kernel/dataset/system → fewest cycles
	for i, j := range jobs {
		if results[i] == nil {
			continue
		}
		k := j.Kernel + "/" + j.Dataset + "/" + j.System
		if c, ok := best[k]; !ok || results[i].Cycles < c {
			best[k] = results[i].Cycles
		}
	}
	speedups := map[string][]float64{}
	for _, kernel := range sp.Kernels {
		for _, ds := range sp.Datasets {
			base := best[kernel+"/"+ds+"/"+accel.GraphDynsCache.String()]
			for _, sys := range accel.Systems() {
				sp := stats.Ratio(float64(base), float64(best[kernel+"/"+ds+"/"+sys.String()]))
				speedups[sys.String()] = append(speedups[sys.String()], sp)
			}
		}
	}
	for sys, xs := range speedups {
		rep.Geomean[sys] = stats.Geomean(xs)
	}

	// With the whole matrix in the cache, experiments.Fig10 itself costs
	// only lookups: use it to prove this file enumerates the same jobs and
	// aggregates them the same way.
	full := len(sp.Datasets) == len(fig10Datasets) && len(sp.Kernels) == len(fig10Kernels)
	if full {
		o := experiments.Options{Scale: sp.scale(), PRIters: sp.PRIters, Runner: r}
		_, data := experiments.Fig10(o)
		if st := r.Stats(); st.Misses != rep.CacheMisses {
			return fmt.Errorf("experiments.Fig10 ran %d simulations this file does not list: the job matrix drifted", st.Misses-rep.CacheMisses)
		}
		for _, sys := range accel.Systems() {
			if data.Geomean[sys] != rep.Geomean[sys.String()] {
				return fmt.Errorf("Fig. 10 geomean for %s: experiments %v, harness %v", sys, data.Geomean[sys], rep.Geomean[sys.String()])
			}
		}
		rep.Fig10Crossed = true
		if sp.Figures {
			_, f12 := experiments.Fig12(o)
			_, f14 := experiments.Fig14(o)
			rep.Fig12, rep.Fig14 = f12.MeanReduction, f14.MeanReduction
		}
	} else if sp.Figures {
		rep.FiguresNote = "Fig. 12 / Fig. 14 need the full matrix (-seconds >= 20); omitted"
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// simSpecFor sizes the matrix from -seconds.
func simSpecFor(o options) simSpec {
	cols := min(max(int(o.seconds)/4, 1), len(fig10Datasets))
	sp := simSpec{
		Datasets: fig10Datasets[:cols], Kernels: fig10Kernels,
		Scale: "tiny", PRIters: 3, Workers: o.clients, Figures: o.trace,
	}
	if o.smoke {
		sp.Datasets, sp.Kernels, sp.OneTile = []string{"SW"}, []string{"bfs"}, true
	}
	return sp
}

// runSim runs the sweep in a fresh child process (so that its peak RSS is
// the simulator's own) and turns the report into metrics.
func runSim(ctx context.Context, o options, res *result) error {
	spec := simSpecFor(o)
	rep, rss, peak, err := simChild(ctx, spec)
	if err != nil {
		return err
	}
	jobs := rep.Jobs
	golden, err := loadGolden(o.root)
	if err != nil {
		return err
	}

	res.Attempted = len(jobs)
	var lat []time.Duration
	var edges, hostNS float64
	changed := 0
	hostBySys, edgesBySys := map[string]float64{}, map[string]float64{}
	spans := newSpanLog(o.trace)
	for _, j := range jobs {
		spans.push(span{Name: "runner.Run " + j.System, Request: -1, StartNS: j.StartNS, EndNS: j.StartNS + j.HostNS,
			Attrs: map[string]any{"label": j.Label, "worker": j.Worker, "cycles": j.Cycles, "edges": j.Edges}})
		if j.Err != "" {
			res.fail(1, "%s: %s", j.Label, j.Err)
			continue
		}
		lat = append(lat, time.Duration(j.HostNS))
		edges += float64(j.Edges)
		hostNS += float64(j.HostNS)
		hostBySys[j.System] += float64(j.HostNS)
		edgesBySys[j.System] += float64(j.Edges)
		if want, ok := golden.Jobs[j.Label]; j.Digest != "" && (!ok || want != j.Digest) {
			changed++
			res.fail(1, "%s: simulated statistics %s differ from golden_sim.json's %q", j.Label, j.Digest, want)
		}
	}
	for _, inv := range rep.Invalid {
		res.fail(1, "core.Validate: %s", inv)
	}
	sort.Slice(lat, func(i, k int) bool { return lat[i] < lat[k] })

	res.set("setup_s", rep.SetupS)
	res.set("ops_per_s", float64(len(lat))/rep.WallS)
	res.set("p50_ms", ms(quantile(lat, 0.50)))
	res.set("p90_ms", ms(quantile(lat, 0.90)))
	res.set("rss_mb", rss)
	res.Info["child_peak_rss_mb"] = peak
	res.set("sim.medges_per_s", edges/rep.WallS/1e6)
	res.Info["samples"] = map[string]int{"jobs": len(lat)}
	res.Info["window_s"] = rep.WallS
	res.Info["datasets"] = spec.Datasets
	res.Info["setup_runs_s"] = rep.SetupRuns
	res.Info["fig10_geomean"] = rep.Geomean
	res.Info["fig10_checked_against_experiments"] = rep.Fig10Crossed
	res.Info["sim_stats_digest"] = sweepDigest(jobs)
	res.Info["model_validation"] = "the repo holds no paper value for the Fig. 10 geomean: unvalidated; a regression anchor at tiny scale, not a fidelity claim"

	// Per-layer account (simulated statistics are exact; host times are
	// this machine's).
	res.set("core.sim_jobs_changed", float64(changed))
	res.set("runner.sim_jobs", float64(rep.CacheMisses))
	res.set("runner.sim_cache_hits", float64(rep.CacheHits))
	res.set("runner.sweep_parallel_eff", hostNS/1e9/(rep.WallS*float64(spec.Workers)))
	for _, sys := range accel.Systems() {
		name := metricName(sys.String())
		res.set("experiments.fig10_gm."+name, rep.Geomean[sys.String()])
		if e := edgesBySys[sys.String()]; e > 0 {
			res.set("accel.host_ns_per_edge."+name, hostBySys[sys.String()]/e)
		}
	}
	t := rep.Piccolo
	res.set("cache.hit_rate", stats.Ratio(float64(t.CacheHits), float64(t.CacheAccesses)))
	res.set("cache.useful_fraction", stats.Ratio(float64(t.BytesUseful), float64(t.BytesFetched)))
	res.set("dram.read_txns", float64(t.ReadTxns))
	res.set("dram.write_txns", float64(t.WriteTxns))
	res.set("dram.row_acts", float64(t.RowActs))
	res.set("dram.bus_busy_frac", stats.Ratio(float64(t.BusBusy), float64(t.Cycles)))
	res.set("fim.gather_scatter_ops", float64(t.GatherScatterOps))
	res.set("mshr.merge_ratio", stats.Ratio(float64(t.MSHRMerges), float64(t.MSHRMerges+t.MSHRAllocs)))
	res.set("accel.window_stalls", float64(t.WindowStalls))
	res.set("accel.stream_stalls", float64(t.StreamStalls))
	if rep.Fig12 != 0 || rep.Fig14 != 0 {
		res.set("experiments.fig12_txn_reduction", rep.Fig12)
		res.set("experiments.fig14_energy_reduction", rep.Fig14)
		res.Info["paper_comparison"] = fmt.Sprintf(
			"Fig. 12 transaction reduction %.1f%% (paper 43.2%%, difference %+.1f points); Fig. 14 energy reduction %.1f%% (paper 37.3%%, difference %+.1f points); tiny-scale proxies",
			100*rep.Fig12, 100*rep.Fig12-43.2, 100*rep.Fig14, 100*rep.Fig14-37.3)
	} else if rep.FiguresNote != "" {
		res.Info["paper_comparison"] = rep.FiguresNote
	}
	if !o.trace {
		return nil
	}
	// Tracing the sweep is bookkeeping around runner.Run that both kinds of
	// run do (p50_ms needs the per-job times); there is no second execution
	// path whose cost could differ.
	res.set("bench.trace_overhead_pct", 0)
	simComponentMetrics(res, spans, o.smoke)
	return spans.write(filepath.Join(o.outDir, "trace-sim-fig10.json"), res)
}

// metricName lowers a system name to the metric-name alphabet:
// "GraphDyns(Cache)" → "graphdyns-cache".
func metricName(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "(", "-")
	return strings.ReplaceAll(s, ")", "")
}

// sweepDigest is one SHA-256 over every job's label and statistics digest.
func sweepDigest(jobs []*simJob) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s=%s\n", j.Label, j.Digest)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// simChild re-executes this binary with -sim-child and returns its report,
// its sustained resident set (sampleRSS) and its peak (rusage of the reaped
// child).
func simChild(ctx context.Context, spec simSpec) (rep *simReport, rssMB, peakMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, hardTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-sim-child", string(arg))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	onExit(func() { cmd.Process.Kill() }) // a no-op once Wait has reaped it
	stopRSS := sampleRSS(cmd.Process.Pid)
	err = cmd.Wait()
	rss := stopRSS()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("simulator child: %w", err)
	}
	rep = &simReport{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, 0, 0, fmt.Errorf("simulator child report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, 0, fmt.Errorf("no rusage for the simulator child")
	}
	return rep, rss, float64(ru.Maxrss) / 1024, nil // Linux reports KB
}

// goldenFile lists the expected statistics digest of every job of the full
// matrix.
type goldenFile struct {
	Scale   string            `json:"scale"`
	PRIters int               `json:"pr_iters"`
	Jobs    map[string]string `json:"jobs"`
}

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden_sim.json") }

func loadGolden(root string) (*goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden_sim.json: %w", err)
	}
	return &g, nil
}

// updateGoldenFile runs the full matrix once and rewrites golden_sim.json.
// A change that alters the timing model on purpose does this and says so.
func updateGoldenFile(o options) error {
	spec := simSpecFor(o)
	spec.Datasets = fig10Datasets
	rep, _, _, err := simChild(context.Background(), spec)
	if err != nil {
		return err
	}
	if len(rep.Invalid) > 0 {
		return fmt.Errorf("refusing to record: %d jobs fail core.Validate (%s)", len(rep.Invalid), rep.Invalid[0])
	}
	g := goldenFile{Scale: spec.Scale, PRIters: spec.PRIters, Jobs: map[string]string{}}
	for _, j := range rep.Jobs {
		if j.Err != "" {
			return fmt.Errorf("%s: %s", j.Label, j.Err)
		}
		g.Jobs[j.Label] = j.Digest
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d jobs, sweep digest %s\n", len(g.Jobs), sweepDigest(rep.Jobs))
	return os.WriteFile(goldenPath(o.root), append(data, '\n'), 0o644)
}
