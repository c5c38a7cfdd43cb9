package runner

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"piccolo/internal/core"
)

// jobKey computes the content address of a job: a SHA-256 over a canonical
// JSON encoding of the dataset identity and the full core.Config. JSON
// emits struct fields in declaration order, so the encoding is
// deterministic, and it covers every exported Config field — a new sweep
// knob added to core.Config changes the hash instead of silently aliasing
// distinct configurations.
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
//
// A cache with a byte budget keeps the most recently used results whose
// sizes sum to at most budget: a hit moves its result to the front of the
// recency list, and a store evicts from the back until the stored bytes fit
// again, both in O(1). A result larger than the whole budget is returned to
// its callers but not kept. A zero budget keeps every result.
type resultCache[V any] struct {
	mu       sync.Mutex
	results  map[string]*list.Element // of *stored[V], in lru
	lru      list.List                // most recently used at the front
	inflight map[string]*call[V]
	budget   uint64
	size     func(V) uint64 // bytes a result counts against budget
	bytes    uint64

	hits        uint64
	misses      uint64
	invalidated uint64
	evicted     uint64
}

// stored is one kept result with its key and the bytes it counts.
type stored[V any] struct {
	key   string
	res   V
	bytes uint64
}

func newResultCache[V any](budget uint64, size func(V) uint64) *resultCache[V] {
	return &resultCache[V]{
		results:  map[string]*list.Element{},
		inflight: map[string]*call[V]{},
		budget:   budget,
		size:     size,
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
	if el, ok := c.results[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*stored[V]).res, nil, false
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
// version it was not computed on).
func (c *resultCache[V]) complete(key string, f *call[V], res V, err error, store bool) {
	f.res, f.err = res, err
	close(f.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, key)
	if err == nil && store {
		c.store(key, res)
	}
}

// store files res under key as the most recently used result and evicts the
// least recently used ones until the cache fits its budget again. The key
// is not stored yet: only its leader stores it, and lookup makes no leader
// for a stored key.
func (c *resultCache[V]) store(key string, res V) {
	var n uint64
	if c.size != nil {
		n = c.size(res)
	}
	if c.budget > 0 && n > c.budget {
		return
	}
	c.results[key] = c.lru.PushFront(&stored[V]{key: key, res: res, bytes: n})
	c.bytes += n
	for c.budget > 0 && c.bytes > c.budget {
		c.drop(c.lru.Back())
		c.evicted++
	}
}

// drop removes one stored result.
func (c *resultCache[V]) drop(el *list.Element) {
	s := c.lru.Remove(el).(*stored[V])
	delete(c.results, s.key)
	c.bytes -= s.bytes
}

// invalidate drops every stored result stale selects and counts it as
// invalidated. In-flight calls are left to complete: a query stores its
// result under a key that names the version it saw, so its caller drops it
// again when an update has moved the graph on meanwhile (RunQueryInfo).
func (c *resultCache[V]) invalidate(stale func(V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.results {
		if stale(el.Value.(*stored[V]).res) {
			c.drop(el)
			c.invalidated++
		}
	}
}

func (c *resultCache[V]) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Invalidated: c.invalidated, Evicted: c.evicted, Bytes: c.bytes}
}
