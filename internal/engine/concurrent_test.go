package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// flipWidth returns a width callback that alternates 1 and n at every
// superstep boundary, starting at 1. Each run needs its own: the callback
// is called on the run's goroutine only.
func flipWidth(n int) func() int {
	wide := true
	return func() int {
		wide = !wide
		if wide {
			return n
		}
		return 1
	}
}

// refCase is one (kernel, source) pair with its serial reference result.
type refCase struct {
	k   algorithms.Kernel
	src uint32
	ref *algorithms.ReferenceResult
}

// refCases computes the reference for every registered kernel from a few
// sources each (the hub plus two arbitrary vertices; kernels that ignore
// the source simply repeat).
func refCases(g *graph.CSR) []refCase {
	hub, _ := graph.HighestDegreeVertex(g)
	var cases []refCase
	for _, k := range algorithms.All() {
		for _, src := range []uint32{hub, 1, g.V / 2} {
			cases = append(cases, refCase{k, src, algorithms.RunReference(g, k, src, 100)})
		}
	}
	return cases
}

// runConcurrently drives every case through e from `goroutines` goroutines
// at once, each starting at a different offset so different kernels overlap,
// and reports any result that is not bit-identical to its reference.
func runConcurrently(t *testing.T, e *Engine, cases []refCase, goroutines int) {
	t.Helper()
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				c := cases[(i+gi*len(cases)/goroutines)%len(cases)]
				opts := RunOptions{Workers: 1 + (gi+i)%3}
				if (gi+i)%2 == 0 {
					opts = RunOptions{Width: flipWidth(4)}
				}
				got, err := e.RunCtx(context.Background(), c.k, c.src, 100, opts)
				if err != nil {
					t.Errorf("%s src=%d: %v", c.k.Name(), c.src, err)
					return
				}
				if got.Iterations != c.ref.Iterations || got.EdgeVisits != c.ref.EdgeVisits ||
					!slices.Equal(got.Prop, c.ref.Prop) {
					t.Errorf("%s src=%d diverged from the reference under concurrent runs", c.k.Name(), c.src)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRunsSharedEngine is the differential suite for the
// index/run-state split: several goroutines run all kernels from mixed
// sources on ONE engine at the same time — CSR-backed and segment-backed,
// fixed widths and widths that change at every superstep — and every
// result must be bit-identical to the serial reference. Under -race this
// also proves that the shared index is only read (the lazy dense and pull
// builds included) and that run states are never shared.
func TestConcurrentRunsSharedEngine(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	cases := refCases(g)
	const goroutines = 4
	t.Run("csr", func(t *testing.T) {
		e := New(g, Config{Workers: 2, shards: 5})
		runConcurrently(t, e, cases, goroutines)
		if len(e.free) > cap(e.free) || cap(e.free) != 2 {
			t.Fatalf("free list holds %d states, bound %d (want bound 2)", len(e.free), cap(e.free))
		}
	})
	t.Run("segment", func(t *testing.T) {
		e := NewFromStore(openTestSegment(t, g, 256), Config{Workers: 2, shards: 5})
		runConcurrently(t, e, cases, goroutines)
	})
}

// stateIsClean reports whether a parked run state carries no marks a later
// run could trip over.
func stateIsClean(rs *runState) error {
	if i := slices.Index(rs.updated, true); i >= 0 {
		return fmt.Errorf("updated[%d] left set", i)
	}
	if rs.active != nil && (rs.active.recount() != 0 || rs.active.count() != 0) {
		return fmt.Errorf("frontier bitmap left with %d bits", rs.active.recount())
	}
	if rs.opts.Trace != nil || rs.opts.Width != nil {
		return errors.New("finished run's options still pinned")
	}
	return nil
}

// parkedStates drains and refills the free list, returning what it held.
func parkedStates(e *Engine) []*runState {
	var out []*runState
	for {
		select {
		case rs := <-e.free:
			out = append(out, rs)
			continue
		default:
		}
		break
	}
	for _, rs := range out {
		e.free <- rs
	}
	return out
}

// panicKernel panics inside Process after `left` edge contributions — in
// the middle of a phase when the run executes inline (width 1).
type panicKernel struct {
	opaqueKernel
	left *atomic.Int64
}

func (p panicKernel) Process(w uint8, prop uint64, deg uint32) uint64 {
	if p.left.Add(-1) < 0 {
		panic("panicKernel: boom")
	}
	return p.opaqueKernel.Process(w, prop, deg)
}

// TestRunStateRecycling pins the free list's contract: a canceled run parks
// its state clean, a run that panics mid-phase never parks its state, the
// list never holds more than its bound, and whatever happened before, the
// next concurrent runs on the same index are bit-identical.
func TestRunStateRecycling(t *testing.T) {
	g := graph.Kronecker("kronecker", 10, 8, 12)
	cases := refCases(g)
	var perKernel []refCase // the hub-source case of each kernel
	for i := 0; i < len(cases); i += 3 {
		perKernel = append(perKernel, cases[i])
	}
	const bound = 2
	e := New(g, Config{Workers: bound, shards: 5})

	// Cancel every kernel early, midway and at its last superstep boundary
	// (TestRunCtxCancelDeterminism walks every boundary on smaller graphs).
	for _, c := range perKernel {
		last := int64(c.ref.Iterations) - 1
		if last < 0 {
			continue
		}
		for _, n := range []int64{0, last / 2, last} {
			if _, err := e.RunCtx(newCountdown(n), c.k, c.src, 100, RunOptions{Width: flipWidth(4)}); err == nil {
				t.Fatalf("%s: cancel at boundary %d did not cancel", c.k.Name(), n)
			}
			for _, rs := range parkedStates(e) {
				if err := stateIsClean(rs); err != nil {
					t.Fatalf("%s canceled at boundary %d: %v", c.k.Name(), n, err)
				}
			}
		}
	}

	// Panic mid-phase, at several depths into each kernel's run. The run's
	// state must vanish with it: the parked set is unchanged by the attempt.
	for _, c := range perKernel {
		for _, after := range []int64{0, 7, int64(c.ref.EdgeVisits / 2)} {
			before := parkedStates(e)
			func() {
				defer func() {
					if recover() == nil && uint64(after) < c.ref.EdgeVisits {
						t.Fatalf("%s: panicKernel did not panic", c.k.Name())
					}
				}()
				pk := panicKernel{opaqueKernel{c.k}, new(atomic.Int64)}
				pk.left.Store(after)
				e.RunCtx(context.Background(), pk, c.src, 100, RunOptions{Workers: 1})
			}()
			parked := parkedStates(e)
			if len(parked) > len(before) {
				t.Fatalf("%s: a panicked run parked its state (%d → %d parked)", c.k.Name(), len(before), len(parked))
			}
			for _, rs := range parked {
				if err := stateIsClean(rs); err != nil {
					t.Fatalf("%s: dirty state parked after panic: %v", c.k.Name(), err)
				}
			}
		}
	}
	if n := RunsInflight(); n != 0 {
		t.Fatalf("RunsInflight = %d with nothing running", n)
	}

	// A burst wider than the bound: every run is correct, the surplus states
	// are dropped, the list ends full and no fuller.
	runConcurrently(t, e, cases, 3*bound)
	parked := parkedStates(e)
	if len(parked) != bound {
		t.Fatalf("free list holds %d states after a %d-wide burst, want its bound %d", len(parked), 3*bound, bound)
	}
	for _, rs := range parked {
		if err := stateIsClean(rs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWidthCounters checks the observability counters a run maintains: each
// superstep is counted once under the width it executed at, and the
// in-flight gauge is up exactly while a run is inside RunCtx.
func TestWidthCounters(t *testing.T) {
	g := graph.Kronecker("kron", 9, 8, 3)
	src, _ := graph.HighestDegreeVertex(g)
	k, _ := algorithms.New("sssp")
	e := New(g, Config{Workers: 2})
	w1, w2 := WidthSupersteps(1), WidthSupersteps(2)
	inflight := int64(-1)
	calls := 0
	res, err := e.RunCtx(context.Background(), k, src, 100, RunOptions{Width: func() int {
		inflight = RunsInflight()
		calls++
		return 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	if inflight < 1 {
		t.Fatalf("RunsInflight = %d inside a run", inflight)
	}
	if calls != res.Iterations {
		t.Fatalf("width callback ran %d times over %d supersteps", calls, res.Iterations)
	}
	if d1, d2 := WidthSupersteps(1)-w1, WidthSupersteps(2)-w2; d1 != uint64(res.Iterations) || d2 != 0 {
		t.Fatalf("width counters moved by %d (width 1) and %d (width 2), want %d and 0", d1, d2, res.Iterations)
	}
}
