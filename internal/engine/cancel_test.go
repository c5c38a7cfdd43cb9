package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"piccolo/internal/algorithms"
	"piccolo/internal/graph"
)

// countdownCtx returns nil from Err() for the first `left` calls and
// context.Canceled after — a deterministic way to interrupt an execution
// at exactly the n-th cancellation checkpoint. Done() is inherited from
// Background (never fires): the engine's cooperative cancellation must
// rely on Err() polling at superstep boundaries alone.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCtxCancelDeterminism interrupts every kernel at every superstep
// boundary and requires exactly one of two outcomes: a context error with
// a partial-progress result (nil Prop, Iterations ≤ full), or the full
// bit-identical result — never a third state. After each interruption the
// same engine must still produce the full result, pinning that a canceled
// run leaves no partial state behind. Run under -race this also checks
// the cancellation path against the worker barriers.
func TestRunCtxCancelDeterminism(t *testing.T) {
	graphs := []*graph.CSR{
		graph.Uniform("uniform", 600, 4, 11),
		graph.Kronecker("kron", 8, 8, 12),
	}
	for _, g := range graphs {
		src, _ := graph.HighestDegreeVertex(g)
		for _, k := range algorithms.All() {
			t.Run(fmt.Sprintf("%s/%s", g.Name, k.Name()), func(t *testing.T) {
				e := New(g, Config{Workers: 3})
				ref := algorithms.RunReference(g, k, src, 100)

				// Count the checkpoints a full run polls.
				probe := newCountdown(1 << 30)
				full, err := e.RunCtx(probe, k, src, 100, RunOptions{})
				if err != nil {
					t.Fatalf("uncanceled run failed: %v", err)
				}
				assertBitIdentical(t, ref, full)
				checks := probe.calls.Load()
				if checks == 0 {
					t.Fatal("no cancellation checkpoints polled — cancellation is dead code")
				}

				for n := int64(0); n <= checks; n++ {
					res, err := e.RunCtx(newCountdown(n), k, src, 100, RunOptions{})
					if err != nil {
						if err != context.Canceled {
							t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
						}
						if res == nil || res.Prop != nil {
							t.Fatalf("n=%d: canceled run returned prop (or no stats): %+v", n, res)
						}
						if res.Iterations > ref.Iterations {
							t.Fatalf("n=%d: partial iterations %d exceed full %d", n, res.Iterations, ref.Iterations)
						}
					} else {
						assertBitIdentical(t, ref, res)
					}
					// The engine must be unharmed either way.
					again, err := e.RunCtx(context.Background(), k, src, 100, RunOptions{})
					if err != nil {
						t.Fatalf("n=%d: follow-up run failed: %v", n, err)
					}
					assertBitIdentical(t, ref, again)
				}
			})
		}
	}
}
