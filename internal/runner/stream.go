package runner

import (
	"context"
	"fmt"
	"time"

	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// ApplyUpdates inserts a batch of edges into (dataset, scale) and returns
// the graph's new version (DESIGN.md §10). The first update promotes the
// graph from its static engine to a streaming DynamicEngine (promote). Every
// query key carries the graph's version, so no result is ever served for a
// state it was not computed on; an update also evicts the graph's stored
// query results, which could never be hit again, and no other graph's.
//
// The context gates admission only: a batch is either refused before
// anything happens (context already done, WAL poisoned) or applied fully —
// the apply itself is atomic and never abandoned mid-way, so cancellation
// can never leave a half-applied batch. With the WAL enabled the version
// is not returned until the batch's log record is fsync-durable (wal.go's
// commit protocol); a crash loses at most batches whose callers never got
// an acknowledgment. A stored or unknown graph, and a batch the graph refuses
// (empty, out of range, zero weight), is an *InvalidError; a failing log is not.
func (r *Runner) ApplyUpdates(ctx context.Context, dataset string, sc graph.Scale, batch []stream.EdgeUpdate) (ver uint64, err error) {
	defer func(start time.Time) { r.metrics.observeUpdate(outcome("ok", err), start) }(time.Now())
	if err = ctx.Err(); err != nil {
		return 0, err
	}
	if r.lookup(graphKey{name: dataset, stored: true}) != nil {
		// Updating one would fork it from its digest-addressed cache entries.
		return 0, &InvalidError{fmt.Errorf("runner: stored graph %q is read-only (segments have no update path)", dataset)}
	}
	e, err := r.generator(dataset, sc)
	if err != nil {
		return 0, err
	}
	d, ws, err := r.promote(e, dataset, sc)
	if err != nil {
		return 0, err
	}
	if ws != nil {
		ver, err = ws.commit(d, batch)
	} else if ver, err = d.ApplyUpdates(batch); err != nil {
		err = &InvalidError{err} // it refuses only what the batch holds, before applying any of it
	}
	if err != nil {
		return 0, err
	}
	r.dropStale(e, ver)
	return ver, nil
}

// promote moves e's graph onto the streaming path on its first update: under
// the entry's lock a DynamicEngine replaces the static engine, which no query
// can reach again and so is released rather than kept for the life of the
// process. With the WAL enabled it first opens the graph's log, so a log that
// cannot open leaves the graph as it was.
func (r *Runner) promote(e *graphEntry, dataset string, sc graph.Scale) (*stream.DynamicEngine, *walState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.walDir != "" && e.wal == nil {
		ws, err := openWAL(r.walDir, walSubdir(dataset, sc))
		if err != nil {
			return nil, nil, err
		}
		e.wal = ws
	}
	if e.dyn.Load() == nil {
		e.dyn.Store(stream.New(e.g, stream.Config{Workers: r.workers}))
		e.static = nil
	}
	return e.dyn.Load(), e.wal, nil
}

// GraphVersion returns the current version of (dataset, scale) as a query
// would see it: the number of update batches applied, 0 for a never-updated
// generator graph or a stored one. An unknown dataset is an *InvalidError.
func (r *Runner) GraphVersion(dataset string, sc graph.Scale) (uint64, error) {
	if r.lookup(graphKey{name: dataset, stored: true}) == nil {
		if e := r.lookup(graphKey{name: dataset, scale: sc}); e != nil {
			return e.version(), nil
		} else if _, err := graph.ByName(dataset); err != nil {
			return 0, &InvalidError{err}
		}
	}
	return 0, nil
}

// CurrentEdges returns the current edge count of (dataset, scale) in O(1)
// — base edges plus pending deltas, without materializing the overlay.
func (r *Runner) CurrentEdges(dataset string, sc graph.Scale) (uint64, error) {
	e, err := r.generator(dataset, sc)
	if err != nil {
		return 0, err
	}
	if d := e.dyn.Load(); d != nil {
		return d.E(), nil
	}
	return e.g.E(), nil
}

// StreamStats aggregates the update/repair counters across every updated
// graph (zero value when no graph has been updated yet).
func (r *Runner) StreamStats() stream.Stats {
	var total stream.Stats
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.graphs {
		d := e.dyn.Load()
		if d == nil {
			continue
		}
		s := d.Stats()
		total.Version += s.Version
		total.EdgesApplied += s.EdgesApplied
		total.IncrementalRepairs += s.IncrementalRepairs
		total.FullRecomputes += s.FullRecomputes
		total.CachedServes += s.CachedServes
		total.Compactions += s.Compactions
		total.RepairTouched += s.RepairTouched
		total.RepairEdges += s.RepairEdges
		total.IndexCarried += s.IndexCarried
		total.IndexRebuilt += s.IndexRebuilt
		total.LockWaitNs += s.LockWaitNs
		total.LockWaits += s.LockWaits
		total.IndexBytes += s.IndexBytes
	}
	return total
}

// engineIndexBytes sums IndexBytes over the resident engines: every static
// engine and every streamed graph's full-run engine. It takes an entry's lock
// only after releasing the registry's, so a scrape waits at most for one
// static engine's build and stalls no lookup meanwhile.
func (r *Runner) engineIndexBytes() uint64 {
	r.mu.Lock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	var n uint64
	for _, e := range entries {
		if d := e.dyn.Load(); d != nil {
			n += d.Stats().IndexBytes
			continue
		}
		e.mu.Lock()
		if e.static != nil {
			n += e.static.IndexBytes()
		}
		e.mu.Unlock()
	}
	return n
}
