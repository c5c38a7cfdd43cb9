package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/core"
	"piccolo/internal/graph"
)

// execResult is what a controllable exec hands back to resultCache.do.
type execResult struct {
	res   int
	store bool
	err   error
}

// doOut is what resultCache.do returned.
type doOut struct {
	res int
	how string
	err error
}

// doNow calls c.do synchronously with an exec that returns r at once.
func doNow(c *resultCache[int], r execResult) doOut {
	res, how, err := c.do(context.Background(), "k", func() (int, bool, error) {
		return r.res, r.store, r.err
	})
	return doOut{res, how, err}
}

// blockingDo starts c.do on its own goroutine with an exec that blocks until
// it is handed its result on exec (buffered, so a send never blocks even when
// the call does not lead and never reads it); done delivers what do returned.
func blockingDo(ctx context.Context, c *resultCache[int]) (exec chan<- execResult, done <-chan doOut) {
	in := make(chan execResult, 1)
	out := make(chan doOut, 1)
	go func() {
		res, how, err := c.do(ctx, "k", func() (int, bool, error) {
			r := <-in
			return r.res, r.store, r.err
		})
		out <- doOut{res, how, err}
	}()
	return in, out
}

// awaitLookups polls until c has counted hits and misses: every goroutine
// whose lookup they count is then the leader of the in-flight call or
// waiting on it.
func awaitLookups(c *resultCache[int], hits, misses uint64) {
	for s := c.stats(); s.Hits < hits || s.Misses < misses; s = c.stats() {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDo drives the one single-flight loop through each of its outcomes with
// an exec the test controls. CI runs it under -race.
func TestDo(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *resultCache[int])
	}{
		{"hit", func(t *testing.T, c *resultCache[int]) {
			expect(t, doNow(c, execResult{1, true, nil}), doOut{1, "exec", nil})
			expect(t, doNow(c, execResult{2, true, nil}), doOut{1, "hit", nil})
		}},
		{"wait", func(t *testing.T, c *resultCache[int]) {
			lead, leadDone := blockingDo(context.Background(), c)
			awaitLookups(c, 0, 1)
			_, waitDone := blockingDo(context.Background(), c)
			awaitLookups(c, 1, 1)
			lead <- execResult{7, true, nil}
			expect(t, <-leadDone, doOut{7, "exec", nil})
			expect(t, <-waitDone, doOut{7, "wait", nil})
		}},
		{"leader's context error: the waiter leads", func(t *testing.T, c *resultCache[int]) {
			lead, leadDone := blockingDo(context.Background(), c)
			awaitLookups(c, 0, 1)
			waitExec, waitDone := blockingDo(context.Background(), c)
			awaitLookups(c, 1, 1)
			waitExec <- execResult{9, true, nil}
			lead <- execResult{0, false, context.DeadlineExceeded}
			expect(t, <-leadDone, doOut{0, "exec", context.DeadlineExceeded})
			expect(t, <-waitDone, doOut{9, "exec", nil})
			if s := c.stats(); s.Misses != 2 {
				t.Fatalf("misses = %d, want 2: the waiter did not execute", s.Misses)
			}
		}},
		{"waiter's own context ends", func(t *testing.T, c *resultCache[int]) {
			lead, leadDone := blockingDo(context.Background(), c)
			awaitLookups(c, 0, 1)
			ctx, cancel := context.WithCancel(context.Background())
			_, waitDone := blockingDo(ctx, c)
			awaitLookups(c, 1, 1)
			cancel()
			expect(t, <-waitDone, doOut{0, "wait", context.Canceled})
			lead <- execResult{3, true, nil}
			expect(t, <-leadDone, doOut{3, "exec", nil})
			expect(t, doNow(c, execResult{4, true, nil}), doOut{3, "hit", nil})
		}},
		{"exec error: not stored", func(t *testing.T, c *resultCache[int]) {
			expect(t, doNow(c, execResult{0, true, boom}), doOut{0, "exec", boom})
			expect(t, doNow(c, execResult{4, true, nil}), doOut{4, "exec", nil})
		}},
		{"store=false: served, not stored", func(t *testing.T, c *resultCache[int]) {
			expect(t, doNow(c, execResult{5, false, nil}), doOut{5, "exec", nil})
			expect(t, doNow(c, execResult{6, true, nil}), doOut{6, "exec", nil})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newResultCache[int](0, nil)) })
	}
}

func expect(t *testing.T, got, want doOut) {
	t.Helper()
	if got.res != want.res || got.how != want.how || !errors.Is(got.err, want.err) {
		t.Fatalf("do = %+v, want %+v", got, want)
	}
}

// holdPool takes every slot of r's pool, so a leader queues inside its exec
// until release is called.
func holdPool(t *testing.T, r *Runner) (release func()) {
	t.Helper()
	held := make([]*slots, r.workers)
	for i := range held {
		s, err := r.slots.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held[i] = s
	}
	return func() {
		for _, s := range held {
			s.release()
		}
	}
}

// leaderDeadline drives one caller of resultCache.do through the leader's-
// deadline rule: with the pool held, a leader queues in its exec and an
// identical submission joins it as a waiter; the leader's context is
// canceled. The leader must report its own cancellation, and the waiter must
// lead a fresh execution under its own budget rather than inherit that error.
func leaderDeadline(t *testing.T, r *Runner, stats func() Stats, submit func(context.Context) error) {
	t.Helper()
	release := holdPool(t, r)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	leader, waiter := make(chan error, 1), make(chan error, 1)
	go func() { leader <- submit(ctx) }()
	for stats().Misses == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	go func() { waiter <- submit(context.Background()) }()
	for stats().Hits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want its own cancellation", err)
	}
	release()
	if err := <-waiter; err != nil {
		t.Fatalf("waiter inherited the leader's error: %v", err)
	}
	if s := stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2: the waiter did not execute", s.Misses)
	}
}

func TestDoThroughRun(t *testing.T) {
	r := New(1)
	job := Job{Dataset: "UU", Config: core.Config{
		System: accel.Piccolo, Kernel: "bfs", Scale: graph.ScaleTiny, MaxIters: 2, Src: -1,
	}}
	leaderDeadline(t, r, r.Stats, func(ctx context.Context) error {
		_, err := r.Run(ctx, job)
		return err
	})
	for outcome, n := range map[string]uint64{"canceled": 1, "exec": 1, "wait": 0, "error": 0, "invalid": 0} {
		if got := r.metrics.runOutcome[outcome].Value(); got != n {
			t.Errorf("piccolo_run_total{outcome=%q} = %d, want %d", outcome, got, n)
		}
	}
}

func TestDoThroughQuery(t *testing.T) {
	r := New(2)
	q := Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 3}
	leaderDeadline(t, r, r.QueryStats, func(ctx context.Context) error {
		_, info, err := r.RunQueryInfo(ctx, q)
		if err == nil && info.Mode != "engine" {
			t.Errorf("retried waiter served as %q, want engine", info.Mode)
		}
		return err
	})
	bad := q
	bad.Kernel = "dijkstra"
	if _, info, err := r.RunQueryInfo(context.Background(), bad); err == nil || info.Mode != "" {
		t.Fatalf("unknown kernel: mode %q, err %v; want a rejection before any arm", info.Mode, err)
	}
	for mode, n := range map[string]uint64{"canceled": 1, "engine": 1, "wait": 0, "error": 0, "invalid": 1} {
		if got := r.metrics.queryMode[mode].Value(); got != n {
			t.Errorf("piccolo_query_total{mode=%q} = %d, want %d", mode, got, n)
		}
	}
	g, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := r.RunQueryInfo(context.Background(), q)
	if err != nil || info.Mode != "cached" {
		t.Fatalf("repeat: mode %q, err %v; want the waiter's stored result", info.Mode, err)
	}
	k, _ := algorithms.New("sssp")
	if ref := algorithms.RunReference(g, k, 3, q.canonical().MaxIters); !reflect.DeepEqual(res.Prop, ref.Prop) {
		t.Fatal("waiter's result diverges from the reference")
	}
}

// TestQueryWaitMode: a query served by an identical one in flight reports
// "wait" — in its info and in piccolo_query_total — with the leader's entry.
func TestQueryWaitMode(t *testing.T) {
	r := New(2)
	q := Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 1}
	finish := startParked(t, r, q)
	type outcome struct {
		res  *algorithms.ReferenceResult
		info QueryInfo
		err  error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, info, err := r.RunQueryInfo(context.Background(), q)
		waiter <- outcome{res, info, err}
	}()
	for r.QueryStats().Hits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	finish()
	w := <-waiter
	if w.err != nil || w.info.Mode != "wait" {
		t.Fatalf("waiter: mode %q, err %v; want wait", w.info.Mode, w.err)
	}
	res, hit, err := r.RunQueryInfo(context.Background(), q)
	if err != nil || hit.Mode != "cached" || res != w.res {
		t.Fatalf("repeat: mode %q, same result %v, err %v", hit.Mode, res == w.res, err)
	}
	if w.info.Key != hit.Key || w.info.Vertices != hit.Vertices || w.info.Edges != hit.Edges || w.info.Edges == 0 {
		t.Fatalf("waiter info %+v disagrees with the entry's %+v", w.info, hit)
	}
	if got := r.metrics.queryMode["wait"].Value(); got != 1 {
		t.Fatalf(`piccolo_query_total{mode="wait"} = %d, want 1`, got)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestQueryHitAllocs pins what a warmed cache hit allocates: the content key
// (the query boxed for the JSON encoder, the hash and its hex string) and
// nothing per lookup, per graph resolution or per closure.
func TestQueryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include sync.Pool's random drops")
	}
	r := New(2)
	q := Query{Dataset: "UU", Kernel: "cc", Scale: graph.ScaleTiny, Src: -1}
	if _, _, err := r.RunQueryInfo(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := r.RunQueryInfo(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a cache hit allocates %.1f times, want ≤ 5", allocs)
	}
}
