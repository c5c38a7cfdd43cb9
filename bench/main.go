// Command bench is the repository benchmark (BENCHMARK.json at the repo
// root declares its workloads, metrics and bounds; README.md explains the
// choices). It drives the real piccolo-serve binary over HTTP for the three
// serving workloads and runs the Fig. 10 simulation matrix in a child
// process for the simulator workload, checks every output against the
// serial reference executor, and prints each metric by name and unit.
//
//	go run -C bench piccolo/bench                       # all four workloads
//	go run -C bench piccolo/bench -workload serve-hot   # one; last line is JSON
//	go run -C bench piccolo/bench -trace 1              # per-layer run + span files
//	go run -C bench piccolo/bench -agree 2 -runs 3      # do two sets agree?
//	go run -C bench piccolo/bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// hardTimeout bounds one workload's timed window; requests it cuts count
// as failed.
const hardTimeout = 120 * time.Second

// metric is one reported value; the unit comes from BENCHMARK.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]any     `json:"info,omitempty"`
	values    map[string]float64 // as measured, before units are attached
	notes     []string
}

func newResult(workload string, o options) *result {
	return &result{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Info: map[string]any{}, values: map[string]float64{},
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// options is what a workload needs to know about this invocation.
type options struct {
	root    string // repository root (holds BENCHMARK.json)
	outDir  string // bench/out: server binary, temp dirs, span files
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	// clients is the number of load connections, and of simulator workers:
	// 2, the reference box's core count, fixed so that the workloads do
	// not change with the machine.
	clients int
}

// cleanups runs on every exit path: normal return, failure, the hard
// timeout and SIGINT/SIGTERM. Each entry stops a child process or removes a
// temporary directory.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func main() {
	code, err := run(os.Args[1:])
	runCleanups()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all of BENCHMARK.json's)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	runs := fs.Int("runs", 1, "runs per workload in a set, at seeds seed, seed+1, ...")
	agree := fs.Int("agree", 0, "run N sets back to back and check each metric's spread and drift against its bound")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: base.json new.json")
	out := fs.String("out", "", "also write environment and results to this JSON file")
	smoke := fs.Bool("smoke", false, "tiny sizes (smoke_test.go); numbers mean nothing")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden_sim.json from a full Fig. 10 sweep")
	simChild := fs.String("sim-child", "", "internal: run the simulator sweep described by this JSON and print its report")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *simChild != "" {
		return 0, simChildMain(*simChild)
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two files: base.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *runs < 1 {
		return 2, errors.New("-runs must be at least 1")
	}

	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return 1, err
	}
	o := options{
		root: root, outDir: filepath.Join(root, "bench", "out"),
		seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, clients: 2,
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.smoke && *seconds <= 0 {
		o.seconds = 1
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return 1, err
	}
	if *updateGolden {
		return 0, updateGoldenFile(o)
	}

	var names []string
	for _, w := range sp.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}

	// SIGINT/SIGTERM: stop children and remove temp dirs before leaving.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			runCleanups()
			os.Exit(130)
		}
	}()
	ctx := context.Background()

	en := stampEnv(o)
	fmt.Println(en)

	sets := max(*agree, 1)
	var all [][]*result // [set][run]
	for s := 0; s < sets; s++ {
		var set []*result
		for _, name := range names {
			for i := 0; i < *runs; i++ {
				ro := o
				ro.seed = o.seed + int64(i)
				res, err := runWorkload(ctx, name, ro, sp)
				if err != nil {
					return 1, fmt.Errorf("%s: %w", name, err)
				}
				printResult(res)
				set = append(set, res)
			}
		}
		all = append(all, set)
	}
	if *out != "" {
		if err := writeOut(*out, en, all); err != nil {
			return 1, err
		}
	}
	code := 0
	for _, set := range all {
		for _, res := range set {
			if !res.Correct {
				code = 1
			}
		}
	}
	if *agree > 0 {
		if !printAgreement(all, sp) {
			code = 1
		}
		return code, nil
	}
	if len(all[0]) == 1 {
		// The contract line: exactly these four keys, last on stdout. A run
		// that measured wrong answers still exits 0; "correct" says so.
		res := all[0][0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		return 0, nil
	}
	return code, nil
}

// runWorkload runs one workload once and attaches units. Every metric the
// spec declares for this kind of run (end-to-end untraced, per-layer traced)
// must have been measured; a per-layer metric the workload does not exercise
// reads 0.
func runWorkload(ctx context.Context, name string, o options, sp *spec) (*result, error) {
	res := newResult(name, o)
	var err error
	switch name {
	case "sim-fig10":
		err = runSim(ctx, o, res)
	case "serve-cold", "serve-hot", "serve-update":
		err = runServe(ctx, name, o, res)
	default:
		err = fmt.Errorf("no such workload")
	}
	if err != nil {
		return nil, err
	}
	declared := sp.EndToEnd
	if o.trace {
		declared = sp.PerLayer
	}
	res.Metrics = map[string]metric{}
	for _, m := range declared {
		v, ok := res.values[m.Name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(res.values, m.Name)
	}
	// What is left is measured but not declared for this kind of run
	// (workload-specific detail such as update_p50_ms): shown, not gated.
	if len(res.values) > 0 {
		res.Info["extra"] = res.values
	}
	if len(res.notes) > 0 {
		res.Info["failures"] = res.notes
	}
	if res.Attempted < 1 {
		return nil, errors.New("nothing attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printResult(res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("\n== %s seed=%d seconds=%g %s: attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, kind, res.Attempted, res.Failed, res.Correct)
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(res.Info) {
		b, _ := json.Marshal(res.Info[k])
		fmt.Printf("  info %s: %s\n", k, b)
	}
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json (go run -C bench and go test both start in bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}
