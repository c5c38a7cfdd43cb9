package runner

import (
	"context"
	"fmt"
	"sync"
	"time"

	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// Streaming integration (DESIGN.md §10): once a dataset receives edge
// updates, the runner routes its queries through a stream.DynamicEngine
// instead of the static engine memo, and folds the graph's version into
// every query cache key. A result can therefore never be served for a
// graph state it was not computed on — the version component makes stale
// hits structurally impossible — and ApplyUpdates additionally evicts the
// updated graph's stored results so superseded entries do not accumulate
// (targeted invalidation: other graphs' entries are untouched).

// streamCache holds one DynamicEngine per updated (dataset, scale). A
// graph that never received an update has no entry and keeps taking the
// static engine path, whose memoized sharding is cheaper per query.
type streamCache struct {
	mu sync.Mutex
	m  map[graphKey]*stream.DynamicEngine
}

func newStreamCache() *streamCache {
	return &streamCache{m: map[graphKey]*stream.DynamicEngine{}}
}

// streamKey is the printed form of a graph's identity, "DATASET@SCALE": the
// graph's WAL directory name (wal.go) and its group in the queryKeyIndex.
func streamKey(name string, sc graph.Scale) string {
	return fmt.Sprintf("%s@%d", name, sc)
}

// peek returns the dynamic engine for (name, sc), or nil if the graph has
// never been updated.
func (c *streamCache) peek(name string, sc graph.Scale) *stream.DynamicEngine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[graphKey{name, sc}]
}

// getOrCreate returns the dynamic engine for (name, sc), wrapping g on
// first use.
func (c *streamCache) getOrCreate(name string, sc graph.Scale, g *graph.CSR, workers int) *stream.DynamicEngine {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := graphKey{name, sc}
	d := c.m[key]
	if d == nil {
		d = stream.New(g, stream.Config{Workers: workers})
		c.m[key] = d
	}
	return d
}

// install registers a pre-built dynamic engine for (name, sc) — the WAL
// recovery path, which rebuilds engines before any traffic. Installing
// over an existing entry is a programming error (it would fork the
// version history) and panics.
func (c *streamCache) install(name string, sc graph.Scale, d *stream.DynamicEngine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := graphKey{name, sc}
	if c.m[key] != nil {
		panic(fmt.Sprintf("runner: stream engine for %s already exists", streamKey(name, sc)))
	}
	c.m[key] = d
}

// all snapshots the live dynamic engines (for stats aggregation).
func (c *streamCache) all() []*stream.DynamicEngine {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*stream.DynamicEngine, 0, len(c.m))
	for _, d := range c.m {
		out = append(out, d)
	}
	return out
}

// ApplyUpdates inserts a batch of edges into (dataset, scale) and returns
// the graph's new version. The first update promotes the graph from the
// static engine path to a streaming overlay; every update evicts the
// graph's stored query results (their keys encode the old version, so
// they could never be hit again — eviction just reclaims them promptly)
// while leaving every other graph's entries alone.
//
// The context gates admission only: a batch is either refused before
// anything happens (context already done, WAL poisoned) or applied fully —
// the apply itself is atomic and never abandoned mid-way, so cancellation
// can never leave a half-applied batch. With the WAL enabled the version
// is not returned until the batch's log record is fsync-durable (wal.go's
// commit protocol); a crash loses at most batches whose callers never got
// an acknowledgment.
func (r *Runner) ApplyUpdates(ctx context.Context, dataset string, sc graph.Scale, batch []stream.EdgeUpdate) (uint64, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		r.metrics.observeUpdate(err, start)
		return 0, err
	}
	if r.stored.get(dataset) != nil {
		// Stored graphs are immutable on-disk segments — there is no
		// overlay to version, and "updating" one would silently fork it
		// from its digest-addressed cache entries.
		return r.rejectStoredUpdate(dataset, start)
	}
	g, err := r.Graph(dataset, sc)
	if err != nil {
		r.metrics.observeUpdate(err, start)
		return 0, err
	}
	d := r.streams.getOrCreate(dataset, sc, g, r.workers)
	var ver uint64
	if r.wal != nil {
		ws, werr := r.wal.state(dataset, sc)
		if werr != nil {
			r.metrics.observeUpdate(werr, start)
			return 0, werr
		}
		ver, err = ws.commit(d, batch)
	} else {
		ver, err = d.ApplyUpdates(batch)
	}
	if err != nil {
		r.metrics.observeUpdate(err, start)
		return 0, err
	}
	r.queries.removeKeys(r.queryKeys.take(streamKey(dataset, sc)))
	r.metrics.observeUpdate(nil, start)
	return ver, nil
}

// GraphVersion returns the current version of (dataset, scale): the number
// of update batches applied, 0 for a never-updated graph. The dataset name
// is not validated — an unknown dataset is simply at version 0.
func (r *Runner) GraphVersion(dataset string, sc graph.Scale) uint64 {
	if d := r.streams.peek(dataset, sc); d != nil {
		return d.Version()
	}
	return 0
}

// CurrentEdges returns the current edge count of (dataset, scale) in O(1)
// — base edges plus pending deltas, without materializing the overlay.
func (r *Runner) CurrentEdges(dataset string, sc graph.Scale) (uint64, error) {
	if d := r.streams.peek(dataset, sc); d != nil {
		return d.E(), nil
	}
	g, err := r.Graph(dataset, sc)
	if err != nil {
		return 0, err
	}
	return g.E(), nil
}

// CurrentGraph returns the materialized current graph for (dataset,
// scale): the base proxy plus every applied update (read-only, memoized
// per version). For a never-updated dataset this is the base proxy itself.
func (r *Runner) CurrentGraph(dataset string, sc graph.Scale) (*graph.CSR, error) {
	if d := r.streams.peek(dataset, sc); d != nil {
		return d.Graph(), nil
	}
	return r.Graph(dataset, sc)
}

// StreamStats aggregates the update/repair counters across every updated
// graph (zero value when no graph has been updated yet).
func (r *Runner) StreamStats() stream.Stats {
	var total stream.Stats
	for _, d := range r.streams.all() {
		s := d.Stats()
		total.Version += s.Version
		total.EdgesApplied += s.EdgesApplied
		total.IncrementalRepairs += s.IncrementalRepairs
		total.FullRecomputes += s.FullRecomputes
		total.CachedServes += s.CachedServes
		total.Compactions += s.Compactions
		total.DeltaPRQueries += s.DeltaPRQueries
		total.DeltaPRPushes += s.DeltaPRPushes
		total.RepairTouched += s.RepairTouched
		total.RepairEdges += s.RepairEdges
		total.RepairAborts += s.RepairAborts
		total.IndexCarried += s.IndexCarried
		total.IndexRebuilt += s.IndexRebuilt
		total.LockWaitNs += s.LockWaitNs
		total.LockWaits += s.LockWaits
	}
	return total
}

// queryKeyIndex records which stored query keys belong to which graph so
// ApplyUpdates can evict exactly them. Guarded by its own mutex — it is
// touched on every query completion and every update.
type queryKeyIndex struct {
	mu sync.Mutex
	m  map[string][]string
}

// add files key under the graph's group.
func (ix *queryKeyIndex) add(group, key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.m == nil {
		ix.m = map[string][]string{}
	}
	ix.m[group] = append(ix.m[group], key)
}

// take removes and returns the group's keys.
func (ix *queryKeyIndex) take(group string) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	keys := ix.m[group]
	delete(ix.m, group)
	return keys
}

// reset drops every group (ResetCache dropped the entries they index).
func (ix *queryKeyIndex) reset() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.m = nil
}
