package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/core"
	"piccolo/internal/dram"
	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// tinyJobs is a small cross product (2 systems × 2 kernels × 2 datasets)
// with one intra-batch duplicate appended, all at ScaleTiny.
func tinyJobs() []Job {
	var jobs []Job
	for _, sys := range []accel.System{accel.GraphDynsCache, accel.Piccolo} {
		for _, kernel := range []string{"bfs", "pr"} {
			for _, ds := range []string{"UU", "SW"} {
				jobs = append(jobs, Job{Dataset: ds, Config: core.Config{
					System: sys, Kernel: kernel, Scale: graph.ScaleTiny,
					MaxIters: 2, Src: -1,
				}})
			}
		}
	}
	return append(jobs, jobs[0]) // duplicate: must dedup, not re-simulate
}

// fingerprint reduces a result to the fields the experiment tables are
// built from.
type fingerprint struct {
	Cycles  uint64
	Txns    uint64
	Energy  float64
	OffChip float64
}

func fp(r *core.Result) fingerprint {
	return fingerprint{Cycles: r.Cycles, Txns: r.Mem.TotalTxns(),
		Energy: r.Energy.Total(), OffChip: r.OffChipGBps}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	jobs := tinyJobs()
	seq, err := New(1).Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := New(workers).Sweep(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if fp(par[i]) != fp(seq[i]) {
				t.Errorf("workers=%d job %d: %+v != sequential %+v", workers, i, fp(par[i]), fp(seq[i]))
			}
		}
	}
}

func TestSweepRepeatIdentical(t *testing.T) {
	r := New(4)
	jobs := tinyJobs()
	a, err := r.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] { // pointer identity: served from the cache
			t.Errorf("job %d: repeat sweep not served from cache", i)
		}
	}
}

func TestCacheCounters(t *testing.T) {
	r := New(2)
	jobs := tinyJobs()
	unique := map[string]bool{}
	for _, j := range jobs {
		unique[j.Key()] = true
	}
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Misses != uint64(len(unique)) {
		t.Errorf("misses = %d, want %d (one per unique job)", s.Misses, len(unique))
	}
	if s.Hits+s.Misses != uint64(len(jobs)) {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, len(jobs))
	}
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s2 := r.Stats()
	if s2.Misses != s.Misses {
		t.Errorf("repeat sweep executed %d new simulations", s2.Misses-s.Misses)
	}
	if s2.Hits != s.Hits+uint64(len(jobs)) {
		t.Errorf("repeat hits = %d, want %d", s2.Hits, s.Hits+uint64(len(jobs)))
	}
	if got := s2.HitRate(); got < 0.5 {
		t.Errorf("hit rate %.2f after repeat, want > 0.5", got)
	}
}

// TestConcurrentSubmissions hammers one runner from many goroutines with
// overlapping jobs; run under -race this is the data-race test for the
// cache, the single-flight path and the graph memo.
func TestConcurrentSubmissions(t *testing.T) {
	r := New(4)
	jobs := tinyJobs()
	want, err := New(1).Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g)%len(jobs)] // staggered order per goroutine
				res, err := r.Run(context.Background(), j)
				if err != nil {
					errs <- err
					return
				}
				if fp(res) != fp(want[(i+g)%len(jobs)]) {
					t.Errorf("goroutine %d: job %d diverged", g, (i+g)%len(jobs))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	unique := map[string]bool{}
	for _, j := range jobs {
		unique[j.Key()] = true
	}
	if s := r.Stats(); s.Misses != uint64(len(unique)) {
		t.Errorf("misses = %d, want %d: concurrent duplicates re-simulated", s.Misses, len(unique))
	}
}

func TestKeyCanonical(t *testing.T) {
	base := Job{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: "bfs", Src: -1}}
	if base.Key() != base.Key() {
		t.Error("key not deterministic")
	}
	vary := []Job{
		{Dataset: "UU", Config: base.Config},
		{Dataset: "SW", Config: core.Config{System: accel.NMP, Kernel: "bfs", Src: -1}},
		{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: "pr", Src: -1}},
		{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: "bfs", Src: -1, TileScale: 4}},
		{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: "bfs", Src: -1, Untiled: true}},
		{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: "bfs", Src: -1, CacheDesign: "sectored"}},
	}
	seen := map[string]int{base.Key(): -1}
	for i, j := range vary {
		if prev, ok := seen[j.Key()]; ok {
			t.Errorf("job %d collides with %d", i, prev)
		}
		seen[j.Key()] = i
	}
}

// TestKeyCollapsesSpellings: Job.Key folds the graph-free spellings of one
// simulation onto one address, and leaves a job with the zero Mem and Src -1
// encoded exactly as jobKey always encoded it.
func TestKeyCollapsesSpellings(t *testing.T) {
	for _, j := range tinyJobs() {
		if j.Key() != jobKey(j) {
			t.Fatalf("%+v: Key moved off the plain encoding", j)
		}
	}
	job := func(kernel string, src int64, mem dram.Config) Job {
		return Job{Dataset: "SW", Config: core.Config{System: accel.Piccolo, Kernel: kernel, Src: src, Mem: mem}}
	}
	for _, c := range []struct {
		name string
		a, b Job
		same bool
	}{
		{"spelled-out default memory", job("bfs", -1, dram.DDR4(16)), job("bfs", -1, dram.Config{}), true},
		{"another memory", job("bfs", -1, dram.DDR4(8)), job("bfs", -1, dram.Config{}), false},
		{"negative source", job("bfs", -7, dram.Config{}), job("bfs", -1, dram.Config{}), true},
		{"source vertex", job("bfs", 3, dram.Config{}), job("bfs", -1, dram.Config{}), false},
		{"ignored source", job("pr", 3, dram.Config{}), job("pr", -1, dram.Config{}), true},
		{"kernel parameter", job("kcore", 3, dram.Config{}), job("kcore", -1, dram.Config{}), false},
	} {
		if same := c.a.Key() == c.b.Key(); same != c.same {
			t.Errorf("%s: keys equal = %v, want %v", c.name, same, c.same)
		}
	}
}

// TestRunCollapsesSourceBeyondGraph: a source vertex at or beyond V selects
// the default exactly as -1 does, so Run files it under -1's entry; a kernel
// that ignores its source files every source there; a kernel parameter is not
// bounded by V and keeps its own.
func TestRunCollapsesSourceBeyondGraph(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		kernel string
		src    int64
		misses uint64
	}{
		{"bfs", -1, 1}, {"bfs", 1 << 30, 1},
		{"kcore", -1, 2}, {"kcore", 1 << 30, 3},
		{"pr", -1, 4}, {"pr", 1 << 30, 4}, {"pr", 5, 4},
	} {
		_, err := r.Run(context.Background(), Job{Dataset: "UU", Config: core.Config{
			System: accel.Piccolo, Kernel: c.kernel, Scale: graph.ScaleTiny, MaxIters: 2, Src: c.src,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if m := r.Stats().Misses; m != c.misses {
			t.Fatalf("%s src %d: misses = %d, want %d", c.kernel, c.src, m, c.misses)
		}
	}
	// Sweep leaves each job in the form it was keyed by.
	jobs := []Job{{Dataset: "UU", Config: core.Config{
		System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, MaxIters: 2, Src: 1 << 30, Mem: dram.DDR4(16),
	}}}
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if c := jobs[0].Config; c.Src != -1 || c.Mem != (dram.Config{}) || r.Stats().Misses != 4 {
		t.Errorf("swept job %+v (misses %d), want bfs -1's canonical form and entry", c, r.Stats().Misses)
	}
}

func TestErrorsPropagate(t *testing.T) {
	r := New(1)
	invalid := func(what string, err error) {
		t.Helper()
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Errorf("%s: err = %v, want an *InvalidError", what, err)
		}
	}
	_, err := r.Run(context.Background(), Job{Dataset: "SW", Config: core.Config{Kernel: "nope", Src: -1}})
	invalid("unknown kernel", err)
	var uk *algorithms.UnknownKernelError
	if !errors.As(err, &uk) || uk.Name != "nope" || err.Error() != uk.Error() {
		t.Errorf("unknown kernel: err = %v, want the typed cause and its message", err)
	}
	_, err = r.Run(context.Background(), Job{Dataset: "NOPE", Config: core.Config{Kernel: "bfs", Src: -1}})
	invalid("unknown dataset", err)
	_, err = r.Run(context.Background(), Job{Dataset: "UU", Config: core.Config{
		System: accel.GraphDynsCache, Kernel: "bfs", Src: -1, CacheDesign: "piccolo"}})
	invalid("fine-grained cache on a 64B miss path", err)

	// A sweep checks every job before it starts any, and names the bad one.
	jobs := append(tinyJobs()[:2], Job{Dataset: "NOPE", Config: core.Config{Kernel: "bfs", Src: -1}})
	res, err := r.Sweep(context.Background(), jobs)
	invalid("sweep", err)
	if res != nil || err == nil || !strings.Contains(err.Error(), "job 2") {
		t.Errorf("sweep: results %v, err %v; want none and job 2 named", res, err)
	}
	if s := r.Stats(); s.Hits+s.Misses != 0 {
		t.Errorf("invalid requests reached the cache: %+v", s)
	}
	if n := r.GraphsLoaded(); n != 0 {
		t.Errorf("invalid requests built %d graphs", n)
	}
	if got := r.metrics.runOutcome["invalid"].Value(); got != 4 {
		t.Errorf(`piccolo_run_total{outcome="invalid"} = %d, want 4`, got)
	}
}

// TestUnknownNamesLeaveNoGraphs: an unknown dataset name is refused before
// the graph memo makes an entry for it, on every path that takes one —
// otherwise every distinct name a client sends would be kept forever.
func TestUnknownNamesLeaveNoGraphs(t *testing.T) {
	r := New(1)
	ctx := context.Background()
	for i := range 100 {
		name := fmt.Sprintf("NOPE-%d", i)
		if _, err := r.Graph(name, graph.ScaleTiny); err == nil {
			t.Fatal("unknown dataset accepted")
		}
		if _, _, err := r.RunQueryInfo(ctx, Query{Dataset: name, Kernel: "bfs", Scale: graph.ScaleTiny}); err == nil {
			t.Fatal("unknown dataset queried")
		}
		var inv *InvalidError
		if _, err := r.GraphVersion(name, graph.ScaleTiny); !errors.As(err, &inv) {
			t.Fatalf("GraphVersion of an unknown dataset: err = %v, want an *InvalidError", err)
		}
		if _, err := r.ApplyUpdates(ctx, name, graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}); err == nil {
			t.Fatal("unknown dataset updated")
		}
	}
	if n := r.GraphsLoaded(); n != 0 {
		t.Fatalf("GraphsLoaded = %d after 100 unknown names, want 0", n)
	}
}

// TestGraphBuildMetric: a graph's first use records one build sample, a
// memo hit none.
func TestGraphBuildMetric(t *testing.T) {
	r := New(1)
	for i, want := range []uint64{1, 1} {
		if _, err := r.Graph("SW", graph.ScaleTiny); err != nil {
			t.Fatal(err)
		}
		if n := r.metrics.graphBuildSeconds.Snapshot().Count; n != want {
			t.Fatalf("call %d: %d graph-build samples, want %d", i+1, n, want)
		}
	}
}

// TestPrepareCapsBanks: a memory above maxBanks banks is the caller's fault,
// refused before any graph is built or simulation keyed, even where the
// channels × ranks × banks product would overflow; every preset and every
// Fig. 16 point passes.
func TestPrepareCapsBanks(t *testing.T) {
	r := New(1)
	job := func(mem dram.Config) Job {
		return Job{Dataset: "UU", Config: core.Config{System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, Src: 3, Mem: mem}}
	}
	for _, mem := range []dram.Config{
		dram.WithChannels(dram.DDR4(16), 1<<20, 4),
		dram.WithChannels(dram.DDR4(16), 1<<31, 1<<31), // 2^66 banks: wraps to 0 in int64
	} {
		var inv *InvalidError
		if _, err := r.Run(context.Background(), job(mem)); !errors.As(err, &inv) {
			t.Errorf("%s: err = %v, want an *InvalidError", mem.Name, err)
		}
	}
	if n, st := r.GraphsLoaded(), r.Stats(); n != 0 || st.Misses != 0 {
		t.Errorf("refused jobs built %d graphs and ran %d simulations, want none", n, st.Misses)
	}
	var mems []dram.Config
	for _, name := range []string{"DDR4x4", "DDR4x8", "DDR4x16", "LPDDR4", "GDDR5", "HBM", "HBM-enh"} {
		mem, err := dram.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mems = append(mems, mem)
	}
	for _, ch := range []int{1, 2} {
		for _, ra := range []int{1, 2, 4} {
			mems = append(mems, dram.WithChannels(dram.DDR4(16), ch, ra))
		}
	}
	for _, mem := range mems {
		if _, err := r.prepare(job(mem)); err != nil {
			t.Errorf("%s refused: %v", mem.Name, err)
		}
	}
}

// TestPanicBecomesError: a simulator panic on a worker goroutine must
// surface as that job's error — not crash the process, and not leave
// duplicate submissions blocked on a call that never completes.
func TestPanicBecomesError(t *testing.T) {
	r := New(2)
	bad := Job{Dataset: "UU", Config: core.Config{
		System: accel.Piccolo, Kernel: "pr", Scale: graph.ScaleTiny,
		MaxIters: 2, StreamDepth: -2, Src: -1, // engine panics on this
	}}
	if _, err := r.Run(context.Background(), bad); err == nil {
		t.Fatal("panicking job returned no error")
	}
	done := make(chan error, 1)
	go func() { _, err := r.Run(context.Background(), bad); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("second submission returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second submission hung on the failed in-flight call")
	}
	// The pool must still have its slots: a healthy sweep still runs.
	if _, err := r.Sweep(context.Background(), tinyJobs()); err != nil {
		t.Errorf("runner unusable after panic: %v", err)
	}
}

func TestGraphShared(t *testing.T) {
	r := New(2)
	a, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Graph("SW", graph.ScaleTiny)
	if a != b {
		t.Error("graph rebuilt instead of memoized")
	}
	if _, err := r.Graph("NOPE", graph.ScaleTiny); err == nil {
		t.Error("unknown dataset accepted")
	}
}
