package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary when the
// simulator workload re-executes itself as its child process.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-sim-child" {
		if err := simChildMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at -smoke sizes, untraced and traced, and
// checks the benchmark against its own declaration: every metric
// BENCHMARK.json names is emitted with its unit, end-to-end values are
// never zero, answers are correct, and no process or directory is left
// behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts piccolo-serve")
	}
	start := time.Now()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}

	outDir := filepath.Join(root, "bench", "out", fmt.Sprintf("smoke-%d", os.Getpid()))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(outDir)
	defer runCleanups()
	measured := map[string]bool{} // per-layer metrics some workload gave a non-zero value
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{root: root, outDir: outDir, seed: 1, seconds: 0.4, trace: traced, smoke: true, clients: 2}
			t0 := time.Now()
			res, err := runWorkload(context.Background(), w.Name, o, sp)
			t.Logf("%s traced=%v: %v", w.Name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Info["failures"])
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if traced && got.Value != 0 {
					measured[m.Name] = true
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	// Counts that are rightly zero on a healthy run; every other per-layer
	// metric must be measured by at least one workload.
	zeroOK := map[string]bool{
		"serve.non2xx_total": true, "serve.shed_total": true, "runner.mode_wait": true,
		"stream.repair_aborts": true, "stream.compactions": true, "core.sim_jobs_changed": true,
		"bench.trace_overhead_pct": true, "accel.window_stalls": true, "accel.stream_stalls": true,
		// The smoke simulator slice is too small for these.
		"experiments.fig12_txn_reduction": true, "experiments.fig14_energy_reduction": true,
		"serve.p99_ms": true, "runner.sim_cache_hits": true,
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] && !zeroOK[m.Name] {
			t.Errorf("per-layer %s was 0 on every workload: nothing measures it", m.Name)
		}
	}

	// Hygiene: nothing of ours still runs, nothing temporary still exists.
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("directory %s left behind", e.Name())
		}
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if data, err := os.ReadFile(p); err == nil && strings.Contains(string(data), outDir) {
			t.Errorf("process still running: %s", strings.ReplaceAll(string(data), "\x00", " "))
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, want < 15s", d)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
