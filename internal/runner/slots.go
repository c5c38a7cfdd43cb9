package runner

import (
	"context"
	"sync/atomic"
)

// slotPool is the runner's core budget: one slot per worker, shared by
// simulation jobs (one slot each) and engine queries (one or more each).
// It sizes every query's phase width by demand, with no tunable: a query
// that is alone holds every slot and runs at full width; as soon as another
// submission is blocked waiting for its first slot, running queries shrink
// to one slot each at their next superstep boundary, so under load the pool
// runs N submissions side by side at width 1 instead of one at width N —
// graph traversal is memory-bound, so N narrow runs finish more work per
// second than N wide ones in turn. Width never changes a result bit
// (engine.RunOptions.Width).
type slotPool struct {
	sem chan struct{}
	// waiting counts submissions blocked on their mandatory slot.
	waiting atomic.Int32
}

func newSlotPool(n int) *slotPool {
	return &slotPool{sem: make(chan struct{}, n)}
}

// slots is one submission's share of the pool: at least one slot from
// acquire to release. It belongs to the goroutine that acquired it.
type slots struct {
	pool *slotPool
	held int
}

// acquire blocks until the pool has a free slot or ctx is done. This is the
// only place a submission queues, and the wait honours the deadline.
func (p *slotPool) acquire(ctx context.Context) (*slots, error) {
	select {
	case p.sem <- struct{}{}:
	default:
		p.waiting.Add(1)
		defer p.waiting.Add(-1)
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &slots{pool: p, held: 1}, nil
}

// width rebalances the holder's share and returns it: down to the one
// mandatory slot when someone is waiting for theirs, otherwise up by
// whatever is free right now. The engine calls it at every superstep
// boundary, so a waiter is admitted within one superstep of any running
// query.
func (s *slots) width() int {
	if s.pool.waiting.Load() > 0 {
		for ; s.held > 1; s.held-- {
			<-s.pool.sem
		}
		return 1
	}
	for s.held < cap(s.pool.sem) {
		select {
		case s.pool.sem <- struct{}{}:
			s.held++
		default:
			return s.held
		}
	}
	return s.held
}

// release returns every held slot.
func (s *slots) release() {
	for ; s.held > 0; s.held-- {
		<-s.pool.sem
	}
}
