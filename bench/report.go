package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is stamped on every output: a number without its machine is not a
// measurement (ROADMAP aim 1).
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
}

func (e env) String() string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s dirty=%v seed=%d clients=%d",
		e.NumCPU, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit, e.Dirty, e.Seed, e.Clients)
}

func stampEnv(o options) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: o.seed, Clients: o.clients,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = o.root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "--short=12", "HEAD"); err == nil {
		e.Commit = rev
		st, _ := git("status", "--porcelain")
		e.Dirty = st != ""
	}
	return e
}

// quantile returns the q-quantile of sorted latencies (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedLatencies(samples []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), the
// measure the acceptance check uses. Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Env  env         `json:"env"`
	Sets [][]*result `json:"sets"`
}

func writeOut(path string, e env, sets [][]*result) error {
	data, err := json.MarshalIndent(outFile{Env: e, Sets: sets}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// collect groups metric values by workload then metric name, keeping
// traced and untraced runs apart (they report different metrics anyway).
func collect(set []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// worsening is how much worse b is than a as a share of a, signed so that
// positive is worse whatever the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	w := (b - a) / math.Abs(a)
	if better == "higher" {
		w = -w
	}
	return w
}

// compareFiles prints, per workload and metric, base median, new median and
// the ratio with its base, and marks end-to-end metrics that worsened past
// their bound. Medians from machines with different core counts are not
// comparable, so such inputs are refused.
func compareFiles(basePath, newPath string) (int, error) {
	load := func(path string) (*outFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	a, err := load(basePath)
	if err != nil {
		return 1, err
	}
	b, err := load(newPath)
	if err != nil {
		return 1, err
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return 1, fmt.Errorf("refusing to compare: %s ran on nproc=%d gomaxprocs=%d, %s on nproc=%d gomaxprocs=%d",
			basePath, a.Env.NumCPU, a.Env.GOMAXPROCS, newPath, b.Env.NumCPU, b.Env.GOMAXPROCS)
	}
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return 1, err
	}
	fmt.Println("base:", a.Env)
	fmt.Println("new: ", b.Env)
	flat := func(f *outFile) map[string]map[string][]float64 {
		var all []*result
		for _, set := range f.Sets {
			all = append(all, set...)
		}
		return collect(all)
	}
	av, bv := flat(a), flat(b)
	code := 0
	for _, w := range sortedKeys(av) {
		if bv[w] == nil {
			continue
		}
		fmt.Printf("\n%s\n  %-36s %14s %14s %9s %s\n", w, "metric", "base median", "new median", "new/base", "")
		for _, name := range sortedKeys(av[w]) {
			if len(bv[w][name]) == 0 {
				continue
			}
			am, bm := median(av[w][name]), median(bv[w][name])
			ms, _ := sp.find(name)
			mark := ""
			if ms.Bound > 0 && worsening(am, bm, ms.Better) > ms.Bound {
				mark = fmt.Sprintf("WORSE than bound %.2f", ms.Bound)
				code = 1
			}
			ratio := math.NaN()
			if am != 0 {
				ratio = bm / am
			}
			fmt.Printf("  %-36s %14.6g %14.6g %9.3f %s (n=%d/%d, base %.6g %s)\n",
				name, am, bm, ratio, mark, len(av[w][name]), len(bv[w][name]), am, ms.Unit)
		}
	}
	return code, nil
}

// printAgreement reports, per workload and end-to-end metric, min / median
// / max over every run of every set, the quartile spread as a share of the
// median, and the worst drift of a later set's median against the first
// set's, each against the metric's bound. setup_s is held to the drift
// check only: one process start and graph build per run is too few samples
// for a spread. It reports false when anything is outside its bound.
func printAgreement(sets [][]*result, sp *spec) bool {
	ok := true
	perSet := make([]map[string]map[string][]float64, len(sets))
	var flat []*result
	for i, set := range sets {
		perSet[i] = collect(set)
		flat = append(flat, set...)
	}
	all := collect(flat)
	fmt.Printf("\nagreement over %d sets\n", len(sets))
	for _, w := range sortedKeys(all) {
		fmt.Printf("%s\n  %-14s %12s %12s %12s %8s %8s %6s\n", w, "metric", "min", "median", "max", "spread", "drift", "bound")
		for _, m := range sp.EndToEnd {
			vs := all[w][m.Name]
			if len(vs) == 0 {
				continue
			}
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			spread := quartileSpread(vs)
			if len(vs) < 4 {
				spread = (s[len(s)-1] - s[0]) / math.Abs(median(s))
			}
			drift := 0.0
			first := median(perSet[0][w][m.Name])
			for _, ps := range perSet[1:] {
				drift = math.Max(drift, worsening(first, median(ps[w][m.Name]), m.Better))
			}
			verdict := ""
			if (m.Name != "setup_s" && spread > m.Bound) || drift > m.Bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Printf("  %-14s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f %s\n",
				m.Name, s[0], median(s), s[len(s)-1], spread, drift, m.Bound, verdict)
		}
	}
	return ok
}
