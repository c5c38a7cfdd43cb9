// Admission control (DESIGN.md §13): the work endpoints (/run, /sweep,
// /query, /update) sit behind one gate that sheds load with 429 +
// Retry-After in two situations — the in-flight cap is full (instant,
// per-request) or the measured p99 of admitted requests has been over the
// SLO for a sustained run of windows (stateful). Shedding cheaply at the
// door keeps the accepted requests' latency inside the SLO instead of
// letting an overdriven queue push everyone's tail out together.
//
// The p99 is windowed, not lifetime: each tick snapshots the watched
// endpoint histograms and subtracts the previous snapshot
// (obs.HistSnapshot.Sub), so the controller reacts to the last window's
// traffic, not the process's history. Shed responses never touch those
// histograms — the gate sits outside the instrument middleware — so fast
// 429s cannot mask a slow backend, and an idle window (no admitted
// completions) counts as healthy, which is what lets a shedding server
// observe its own recovery.
//
// State machine (mu-held transitions, lock-free admits):
//
//	admit --[p99 > SLO for sustain consecutive windows]--> shed
//	shed  --[p99 ≤ SLO (or idle) for sustain windows]----> admit
//
// The sustain hysteresis on both edges stops a single outlier window from
// flapping the gate.
package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"piccolo/internal/obs"
)

// admission is the shared gate. The zero maxInflight disables the cap;
// the zero slo disables the p99 breaker; both disabled means admitAll.
type admission struct {
	maxInflight int64
	slo         time.Duration
	window      time.Duration
	sustain     int

	inflight atomic.Int64
	shedding atomic.Bool

	mu      sync.Mutex
	hists   []*obs.Histogram // admitted-request latency sources
	prev    *obs.HistSnapshot
	over    int // consecutive windows with p99 > slo
	under   int // consecutive windows with p99 ≤ slo (or idle)
	lastP99 time.Duration

	shedInflight *obs.Counter
	shedSLO      *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// newAdmission builds the gate and registers its metrics. watch lists the
// latency histograms (one per work endpoint) whose windowed p99 drives
// the breaker.
func newAdmission(reg *obs.Registry, maxInflight int, slo, window time.Duration, sustain int) *admission {
	if window <= 0 {
		window = time.Second
	}
	if sustain < 1 {
		sustain = 1
	}
	a := &admission{
		maxInflight: int64(maxInflight),
		slo:         slo,
		window:      window,
		sustain:     sustain,
		shedInflight: reg.Counter("piccolo_http_shed_total",
			"Requests shed by admission control, by reason.", obs.L("reason", "inflight")),
		shedSLO: reg.Counter("piccolo_http_shed_total",
			"Requests shed by admission control, by reason.", obs.L("reason", "slo")),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("piccolo_http_admitted_in_flight",
		"Admitted requests currently in flight across all work endpoints.",
		func() int64 { return a.inflight.Load() })
	reg.GaugeFunc("piccolo_http_shedding",
		"1 while the p99 SLO breaker is open (shedding), else 0.",
		func() int64 {
			if a.shedding.Load() {
				return 1
			}
			return 0
		})
	return a
}

// watch adds h to the histograms the breaker measures. Call before start.
func (a *admission) watch(h *obs.Histogram) {
	a.mu.Lock()
	a.hists = append(a.hists, h)
	a.mu.Unlock()
}

// admit decides one request. ok means the caller holds an in-flight slot
// and must call release exactly once; !ok means the request was shed and
// counted, and the caller should answer 429 with retryAfter.
func (a *admission) admit() (release func(), retryAfter time.Duration, ok bool) {
	if a.slo > 0 && a.shedding.Load() {
		a.shedSLO.Inc()
		// The breaker re-evaluates every window; by the next one the
		// verdict may have changed, so that is the honest retry hint.
		return nil, a.window, false
	}
	n := a.inflight.Add(1)
	if a.maxInflight > 0 && n > a.maxInflight {
		a.inflight.Add(-1)
		a.shedInflight.Inc()
		// Capacity frees up as soon as any in-flight request finishes;
		// one window is the coarse-grained "soon" we can promise.
		return nil, a.window, false
	}
	return func() { a.inflight.Add(-1) }, 0, true
}

// tick evaluates one window: the p99 of requests completed since the last
// tick against the SLO, advancing the breaker state machine. Exposed
// separately from the ticker loop so tests drive windows deterministically.
func (a *admission) tick() {
	if a.slo <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := &obs.HistSnapshot{}
	for _, h := range a.hists {
		cur.Merge(h.Snapshot())
	}
	delta := cur.Sub(a.prev)
	a.prev = cur
	p99 := time.Duration(delta.Quantile(0.99))
	a.lastP99 = p99
	if delta.Count > 0 && p99 > a.slo {
		a.over++
		a.under = 0
	} else {
		a.under++
		a.over = 0
	}
	if !a.shedding.Load() && a.over >= a.sustain {
		a.shedding.Store(true)
	} else if a.shedding.Load() && a.under >= a.sustain {
		a.shedding.Store(false)
	}
}

// p99 returns the last completed window's p99 (0 before the first tick).
func (a *admission) p99() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastP99
}

// start runs the window ticker until close is called.
func (a *admission) start() {
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				a.tick()
			case <-a.stop:
				return
			}
		}
	}()
}

// close stops the ticker (idempotent is not needed; called once on drain).
func (a *admission) close() {
	close(a.stop)
	<-a.done
}

// gate wraps a work endpoint's handler with the admission check. It sits
// outside instrument so shed responses are counted only by the shed
// counters, never by the latency histograms the breaker reads.
func (s *server) gate(h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, retryAfter, ok := s.adm.admit()
		if !ok {
			secs := int(retryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			httpError(w, http.StatusTooManyRequests, fmt.Errorf("overloaded, retry after %ds", secs), nil)
			return
		}
		defer release()
		h(w, r)
	}
}
