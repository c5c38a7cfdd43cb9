package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// TestSlotsWidthByDemand pins the pool's one rule: a lone holder widens to
// every slot, shrinks to its mandatory slot while someone waits for theirs,
// and the pool is empty again once everyone has released.
func TestSlotsWidthByDemand(t *testing.T) {
	p := newSlotPool(4)
	a, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if w := a.width(); w != 4 {
		t.Fatalf("lone holder's width = %d, want 4", w)
	}

	got := make(chan *slots)
	go func() {
		b, err := p.acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- b
	}()
	for p.waiting.Load() == 0 { // b is queued behind a's four slots
		time.Sleep(time.Millisecond)
	}
	if w := a.width(); w != 1 {
		t.Fatalf("width with a waiter = %d, want 1", w)
	}
	b := <-got
	if b == nil {
		t.FailNow()
	}
	if w := b.width(); w != 3 {
		t.Fatalf("admitted waiter's width = %d, want the 3 free slots", w)
	}
	if w := a.width(); w != 1 {
		t.Fatalf("width with nothing free = %d, want 1", w)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on a full pool with a done context: err = %v", err)
	}
	a.release()
	b.release()
	if n := len(p.sem); n != 0 || p.waiting.Load() != 0 {
		t.Fatalf("pool not empty after release: %d slots held, %d waiting", n, p.waiting.Load())
	}
}

// gateCtx parks whoever polls Err() — the engine, at a superstep boundary —
// until release is closed, and says when the first poll arrived. It turns a
// query into a run of arbitrary length that is provably inside the engine,
// holding its worker slot. Done() is Background's (never fires).
type gateCtx struct {
	context.Context
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newGateCtx() *gateCtx {
	return &gateCtx{Context: context.Background(), reached: make(chan struct{}), release: make(chan struct{})}
}

func (c *gateCtx) Err() error {
	c.once.Do(func() { close(c.reached) })
	<-c.release
	return nil
}

// startParked runs q on r under a gateCtx and returns once the run is
// parked at its first superstep boundary; finish releases it and waits.
func startParked(t *testing.T, r *Runner, q Query) (finish func()) {
	t.Helper()
	gate := newGateCtx()
	done := make(chan error, 1)
	go func() {
		_, _, err := r.RunQueryInfo(gate, q)
		done <- err
	}()
	<-gate.reached
	return func() {
		close(gate.release)
		if err := <-done; err != nil {
			t.Errorf("parked query failed: %v", err)
		}
	}
}

// TestSameGraphQueriesOverlap: with the per-engine mutex gone, a second
// query on the same graph runs to completion while the first is still
// inside the engine — both on the static arm and on a stored segment.
func TestSameGraphQueriesOverlap(t *testing.T) {
	r := New(2)
	defer r.CloseStored()
	info, err := r.openStored(writeTestSegment(t, t.TempDir(), graph.Kronecker("kn", 9, 8, 5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, dataset := range []string{"SW", info.Name} {
		finish := startParked(t, r, Query{Dataset: dataset, Kernel: "sssp", Scale: graph.ScaleTiny, Src: 1})
		_, qi, err := r.RunQueryInfo(context.Background(), Query{Dataset: dataset, Kernel: "bfs", Scale: graph.ScaleTiny, Src: 2})
		if err != nil || qi.Mode != "engine" {
			t.Fatalf("%s: second same-graph query: mode %q, err %v", dataset, qi.Mode, err)
		}
		finish()
	}
}

// TestQueuedQueryHonoursDeadline: the only place a query queues is the wait
// for its mandatory slot, and that wait ends with the deadline. A query
// queued behind a same-graph run that holds the pool's only slot returns
// DeadlineExceeded while that run has not advanced a single superstep,
// stores nothing, and shows up in the queue-wait histogram.
func TestQueuedQueryHonoursDeadline(t *testing.T) {
	r := New(1)
	finish := startParked(t, r, Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 1})

	const deadline = 30 * time.Millisecond
	queued := Query{Dataset: "SW", Kernel: "bfs", Scale: graph.ScaleTiny, Src: 2}
	// start precedes the deadline's clock, so a preemption between the two
	// lines can only lengthen the measured time, never read as an early
	// return.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	expires, _ := ctx.Deadline()
	type outcome struct {
		res *algorithms.ReferenceResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, err := r.RunQueryInfo(ctx, queued)
		done <- outcome{res, err}
	}()
	// The wait's own start: the pool counts the query as waiting from inside
	// acquire, after the key, graph and engine lookups that come out of the
	// same deadline. waitSeen is read after that moment, so the wait lasted
	// at least from waitSeen to the deadline.
	var out outcome
	returned := false
	for !returned && r.slots.waiting.Load() == 0 {
		select {
		case out = <-done:
			returned = true
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	waitSeen := time.Now()
	if !returned {
		out = <-done
	}
	if !errors.Is(out.err, context.DeadlineExceeded) || out.res != nil {
		t.Fatalf("queued query: res %v, err %v; want nil, DeadlineExceeded", out.res, out.err)
	}
	if waited := time.Since(start); waited < deadline || waited > 10*time.Second {
		t.Fatalf("queued query returned after %v with a %v deadline", waited, deadline)
	}
	if n := len(r.slots.sem); n != 1 {
		t.Fatalf("%d slots held after the queued query gave up, want the running query's 1", n)
	}
	if w, least := r.metrics.queueWait.Snapshot(), expires.Sub(waitSeen); w.Count != 2 || int64(w.Sum) < least.Nanoseconds() {
		t.Fatalf("queue-wait histogram: %d observations summing to %v, want 2 and ≥ %v (the wait ran from before %v into the deadline to its end)",
			w.Count, time.Duration(w.Sum), least, deadline-least)
	}
	finish()

	// Nothing was stored under the canceled query's key: it executes now.
	_, qi, err := r.RunQueryInfo(context.Background(), queued)
	if err != nil || qi.Mode != "engine" {
		t.Fatalf("follow-up of the canceled query: mode %q, err %v; want a fresh engine run", qi.Mode, err)
	}
}
