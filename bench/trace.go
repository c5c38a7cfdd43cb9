package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer (or, beneath an
// HTTP span, one span the server reported for that request). Times are
// nanoseconds since the log was opened.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0 = none
	Name    string         `json:"name"`
	Request int            `json:"request"` // spans of one request share it; -1 outside requests
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory and writes them once, at the end of a
// traced run. A nil or disabled log records nothing, so the untraced run
// pays for no bookkeeping.
type spanLog struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, epoch: time.Now()} }

func (l *spanLog) push(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// add records a harness-side span around a direct call into a layer.
func (l *spanLog) add(name string, start, end time.Time) {
	if l == nil || !l.on {
		return
	}
	l.push(span{Name: name, Request: -1,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds()})
}

// timed runs fn inside a span and returns how long it took.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.add(name, t0, t1)
	return t1.Sub(t0)
}

// addSample records one HTTP round trip; t0 is the instant sample.start
// counts from.
func (l *spanLog) addSample(name string, s sample, t0 time.Time) int {
	if l == nil || !l.on {
		return 0
	}
	start := t0.Add(s.start).Sub(l.epoch).Nanoseconds()
	return l.push(span{Name: name, Request: s.seq, StartNS: start, EndNS: start + s.lat.Nanoseconds(),
		Attrs: map[string]any{"code": s.code, "client": s.client, "traced": s.traced, "kernel": s.req.kernel, "graph": s.req.graph}})
}

// addChild records a span the server reported inside a request. The
// server's offsets count from its own trace start, which the harness cannot
// see; they are laid from the request's start, which keeps durations and
// order exact and shifts the child by at most the decode time.
func (l *spanLog) addChild(name string, parent, request int, reqStart time.Time, offNS, durNS int64, attrs map[string]any) {
	if l == nil || !l.on {
		return
	}
	start := reqStart.Sub(l.epoch).Nanoseconds() + offNS
	l.push(span{Name: name, Parent: parent, Request: request, StartNS: start, EndNS: start + durNS, Attrs: attrs})
}

// layerTotal is one span name's account: how often, how long, and how long
// outside its children (self time).
type layerTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	Total  float64 `json:"total_ms"`
	SelfMS float64 `json:"self_ms"`
}

// write stores the spans and their per-name totals with the run's counts.
func (l *spanLog) write(path string, res *result) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int]int64{} // parent id → time covered by children
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*layerTotal{}
	for _, s := range l.spans {
		t := byName[s.Name]
		if t == nil {
			t = &layerTotal{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.EndNS - s.StartNS
		t.Count++
		t.Total += float64(d) / 1e6
		t.SelfMS += float64(max(d-child[s.ID], 0)) / 1e6
	}
	totals := make([]*layerTotal, 0, len(byName))
	for _, t := range byName {
		totals = append(totals, t)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Total > totals[j].Total })
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Counts   map[string]float64 `json:"counts"`
		Layers   []*layerTotal      `json:"layers"`
		Spans    []span             `json:"spans"`
	}{res.Workload, res.Seed, res.values, totals, l.spans})
	if err != nil {
		return err
	}
	res.Info["trace_file"] = path
	res.Info["spans"] = len(l.spans)
	return os.WriteFile(path, data, 0o644)
}
