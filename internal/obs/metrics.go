// Package obs is the observability core: a dependency-free metrics
// registry (atomic counters and gauges), a lock-cheap log-bucketed latency
// histogram with mergeable snapshots (histogram.go), a lightweight
// span/trace recorder (trace.go), and a Prometheus-text-format exporter
// (prom.go). Every layer of the host stack — engine, runner, stream,
// piccolo-serve, piccolo-load — reports through this package (DESIGN.md
// §11), so a tail-latency claim anywhere in the system is backed by the
// same histogram math end to end.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Add and Histogram.Observe are a single atomic
//     add (plus one for the histogram's sum); no locks, no allocation, no
//     time formatting. Instrumented hot loops (the engine's supersteps,
//     the runner's per-request paths) must stay inside the benchgate
//     regression gate.
//  2. No dependencies. Only the standard library, and none of the heavy
//     parts — the exporter writes Prometheus text directly.
//  3. Mergeable. Histogram snapshots from different processes (serve and
//     load), goroutines or shards combine associatively, so client-side
//     and server-side distributions are comparable numbers, not
//     approximations of each other.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing uint64. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (in-flight requests, cache sizes).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one metric dimension. Labels are fixed at registration — there
// is no dynamic label lookup on the hot path; callers hold the registered
// handle.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricID is the registry key: name plus canonical (sorted) label set.
type metricID struct {
	name   string
	labels string // canonical "k1=v1,k2=v2"
}

func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// series is one registered metric instance.
type series struct {
	name   string
	help   string
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	// cf/gf are callback metrics: the value is read at scrape time.
	// They bridge pre-existing counter state (the runner's cache Stats,
	// the stream engines' work counters) into the export without double
	// accounting — the owning subsystem stays the single source of truth.
	cf func() uint64
	gf func() int64
	// scale divides exported values (prom.go): a latency histogram or a
	// SecondsCounterFunc records integer nanoseconds but exports seconds,
	// the Prometheus base unit.
	scale float64
}

// Registry holds named metrics. Registration is mutex-guarded (cold path);
// the returned Counter/Gauge/Histogram handles are lock-free. The zero
// value is not usable — call NewRegistry.
type Registry struct {
	mu sync.Mutex
	m  map[metricID]*series
	// order preserves first-registration order per name so the export is
	// stable and grouped.
	order []metricID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[metricID]*series{}}
}

// lookup returns the series for (name, labels), creating it with mk on
// first registration. Re-registering with the same identity returns the
// same handle, so packages can call Counter(...) at use sites without
// coordinating ownership.
func (r *Registry) lookup(name, help string, labels []Label, mk func(*series)) *series {
	id := metricID{name: name, labels: canonicalLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.m[id]
	if s == nil {
		s = &series{name: name, help: help, labels: append([]Label(nil), labels...)}
		sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
		mk(s)
		r.m[id] = s
		r.order = append(r.order, id)
	}
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, labels, func(s *series) { s.c = &Counter{} })
	if s.c == nil {
		panic(fmt.Sprintf("obs: %s registered as a different metric type", name))
	}
	return s.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, labels, func(s *series) { s.g = &Gauge{} })
	if s.g == nil {
		panic(fmt.Sprintf("obs: %s registered as a different metric type", name))
	}
	return s.g
}

// Histogram returns the latency histogram registered under name+labels,
// creating it on first use. Observations are integer nanoseconds; the
// exporter publishes seconds (scale 1e9).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, labels, func(s *series) { s.h = NewHistogram(); s.scale = 1e9 })
	if s.h == nil {
		panic(fmt.Sprintf("obs: %s registered as a different metric type", name))
	}
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonically non-decreasing and safe for concurrent
// use. Re-registering the same identity keeps the first fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.lookup(name, help, labels, func(s *series) { s.cf = fn })
}

// SecondsCounterFunc is CounterFunc for accumulated time, and the one way to
// export it: fn reports integer nanoseconds — what the owning subsystem
// counts — and the exporter publishes seconds (scale 1e9), as it does for
// histograms. A CounterFunc cannot scale in its callback: it returns whole
// counts, and a *_seconds_total series in whole seconds would read 0 for any
// wait shorter than one.
func (r *Registry) SecondsCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.lookup(name, help, labels, func(s *series) { s.cf = fn; s.scale = 1e9 })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.lookup(name, help, labels, func(s *series) { s.gf = fn })
}

// snapshot returns the registered series in stable order.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.m[id])
	}
	return out
}
