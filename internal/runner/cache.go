package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"piccolo/internal/core"
	"piccolo/internal/graph"
)

// jobKey computes the content address of a job: a SHA-256 over a canonical
// JSON encoding of the dataset identity and the full core.Config. JSON
// emits struct fields in declaration order, so the encoding is
// deterministic, and it covers every exported Config field — a new sweep
// knob added to core.Config changes the hash automatically instead of
// silently aliasing distinct configurations (the failure mode of the old
// hand-enumerated format string this replaces).
func jobKey(j Job) string {
	return contentKey(struct {
		Dataset string
		Config  core.Config
	}{j.Dataset, j.Config})
}

// contentKey hashes any plain value struct into a hex content address.
func contentKey(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		// Plain value structs; encoding cannot fail.
		panic(fmt.Sprintf("runner: encoding content key: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// call tracks one in-flight execution so concurrent duplicates can wait on
// it instead of re-executing.
type call[V any] struct {
	done chan struct{}
	res  V
	err  error
}

// resultCache is a locked content-addressed store plus single-flight
// in-flight tracking and hit/miss counters. The runner keeps one instance
// per result type: simulations (*core.Result) and engine queries
// (*algorithms.ReferenceResult) share the machinery but not the namespace.
type resultCache[V any] struct {
	mu          sync.Mutex
	results     map[string]V
	inflight    map[string]*call[V]
	hits        uint64
	misses      uint64
	invalidated uint64
}

func newResultCache[V any]() *resultCache[V] {
	return &resultCache[V]{
		results:  map[string]V{},
		inflight: map[string]*call[V]{},
	}
}

// lookup resolves a key to either a cached result (res, nil, false), an
// in-flight call to wait on (zero, c, false), or leadership of a fresh
// execution (zero, c, true). Both cached results and waits count as hits —
// neither costs an execution; only leadership counts as a miss.
func (c *resultCache[V]) lookup(key string) (V, *call[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.results[key]; ok {
		c.hits++
		return res, nil, false
	}
	var zero V
	if f, ok := c.inflight[key]; ok {
		c.hits++
		return zero, f, false
	}
	c.misses++
	f := &call[V]{done: make(chan struct{})}
	c.inflight[key] = f
	return zero, f, true
}

// complete publishes a leader's outcome: waiters wake with (res, err), and
// a successful result is stored for future lookups when store is true
// (RunQuery passes false when the execution landed on a newer graph
// version than the one the key encodes, so a result can never be filed
// under a version it was not computed on). If the cache was reset while
// the job ran, the stale entry is not re-inserted.
func (c *resultCache[V]) complete(key string, f *call[V], res V, err error, store bool) {
	f.res, f.err = res, err
	close(f.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight[key] != f {
		return // reset raced the execution; discard
	}
	delete(c.inflight, key)
	if err == nil && store {
		c.results[key] = res
	}
}

// removeKeys drops the given stored results (in-flight calls are left to
// complete; their keys encode a stale version, so nothing ever looks them
// up again) and counts them as invalidated.
func (c *resultCache[V]) removeKeys(keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if _, ok := c.results[k]; ok {
			delete(c.results, k)
			c.invalidated++
		}
	}
}

func (c *resultCache[V]) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Invalidated: c.invalidated}
}

func (c *resultCache[V]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = map[string]V{}
	c.inflight = map[string]*call[V]{}
	c.hits, c.misses, c.invalidated = 0, 0, 0
}

// graphCache memoizes dataset-proxy construction per (name, scale) with
// per-entry once semantics, so concurrent jobs on the same dataset build
// it exactly once and then share it read-only.
type graphCache struct {
	mu sync.Mutex
	m  map[graphKey]*graphEntry
}

// graphKey names one generator dataset at a scale. A struct, not a formatted
// string: the graph and stream caches are looked up on every query, cache
// hits included.
type graphKey struct {
	name  string
	scale graph.Scale
}

type graphEntry struct {
	once sync.Once
	g    *graph.CSR
	err  error
}

func newGraphCache() *graphCache {
	return &graphCache{m: map[graphKey]*graphEntry{}}
}

func (c *graphCache) get(name string, sc graph.Scale) (*graph.CSR, error) {
	key := graphKey{name, sc}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &graphEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		d, err := graph.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		e.g = d.Build(sc)
	})
	return e.g, e.err
}

// size reports how many entries the cache holds (loaded or loading).
func (c *graphCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *graphCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[graphKey]*graphEntry{}
}
