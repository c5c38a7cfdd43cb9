package runner

import (
	"context"
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
// (*queryEntry) share the machinery but not the namespace.
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

// do is the one single-flight loop every submission goes through, simulation
// jobs and queries alike. It returns, with how it got it:
//
//   - "hit": the result stored under key;
//   - "wait": the outcome of an identical call already in flight, or ctx.Err()
//     when ctx ends first;
//   - "exec": what exec returned, this call having become the leader. The
//     result is stored when exec reports store and no error.
//
// A waiter whose leader failed with a context error does not inherit it: that
// was the leader's deadline, not this caller's, so the waiter goes round again
// and may lead a fresh execution under its own budget.
func (c *resultCache[V]) do(ctx context.Context, key string, exec func() (res V, store bool, err error)) (V, string, error) {
	for {
		res, f, leader := c.lookup(key)
		if f == nil {
			return res, "hit", nil
		}
		if leader {
			res, store, err := exec()
			c.complete(key, f, res, err, store)
			return res, "exec", err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return res, "wait", ctx.Err()
		}
		if f.err != nil && ctxErr(f.err) {
			continue // the leader's deadline, not ours: go round again
		}
		return f.res, "wait", f.err
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
// (a query passes false when its execution landed on a newer graph version
// than the one the key encodes, so a result can never be filed under a
// version it was not computed on). If the cache was reset while the job ran,
// the stale entry is not re-inserted.
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

// memo builds one value per key, once: concurrent first users of a key wait
// for its one build, which runs outside the memo-wide lock, and then share
// the value read-only. The runner keeps one for dataset proxies and one for
// engines. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns key's value, building it on first use. A failed build is
// memoized like a value.
func (c *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		if c.m == nil {
			c.m = map[K]*memoEntry[V]{}
		}
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// evict drops key so its next user rebuilds it; holders of the old value keep
// using it undisturbed.
func (c *memo[K, V]) evict(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

func (c *memo[K, V]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = nil
}

// size reports how many keys the memo holds (built or building).
func (c *memo[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// graphKey names one generator dataset at a scale. A struct, not a formatted
// string: the graph and stream caches are looked up on every query, cache
// hits included.
type graphKey struct {
	name  string
	scale graph.Scale
}
