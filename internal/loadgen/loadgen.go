// Package loadgen is the open-loop load generator behind cmd/piccolo-load
// (DESIGN.md §11): it fires mixed query/update traffic at a piccolo-serve
// instance at a fixed arrival rate and reports the client-side latency
// distribution using the same obs.Histogram the server exports, so the
// two sides of the wire are directly comparable.
//
// Open-loop means arrivals are scheduled by the clock, not by
// completions: request i is due at start + i/rate whether or not earlier
// requests have returned, and its latency is measured from that scheduled
// arrival instant. A closed-loop client (issue, wait, issue) silently
// stops applying load the moment the server slows down, which is exactly
// when tail latency matters — the coordinated-omission mistake this
// package exists to avoid. If the generator itself cannot keep up with
// the schedule, the lag is included in the measured latency and reported
// as MaxLag so a saturated client is visible instead of flattering.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/obs"
)

// Config tunes one load run. BaseURL, Rate and Duration are required.
type Config struct {
	// BaseURL is the serve instance, e.g. "http://localhost:8642".
	BaseURL string
	// Rate is the arrival rate in requests per second (> 0).
	Rate float64
	// Duration is how long arrivals are generated; outstanding requests
	// are then drained (bounded by Timeout).
	Duration time.Duration
	// UpdateFraction in [0, 1] is the probability an arrival is a POST
	// /update instead of a POST /query.
	UpdateFraction float64
	// Dataset and Scale name the target graph (defaults "UU", "tiny").
	Dataset string
	Scale   string
	// Kernels cycle per query (default: every registered kernel).
	Kernels []string
	// SrcSpread bounds the random query source (cache-busting knob):
	// sources are drawn uniformly from [0, SrcSpread). 0 disables the
	// src field entirely, so every query of a kernel shares one cache
	// entry. The runner canonicalizes out-of-range sources.
	SrcSpread int64
	// BatchEdges is the edges per update batch (default 8).
	BatchEdges int
	// Seed makes the traffic sequence reproducible.
	Seed int64
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// Retries is how many times a 429-shed request is retried before it
	// counts as shed. Each retry waits the server's Retry-After if given,
	// else RetryBackoff doubled per attempt, capped at MaxBackoff, plus up
	// to 50% deterministic jitter (so synchronized clients do not retry in
	// lockstep). 0 disables retries.
	Retries      int
	RetryBackoff time.Duration // base backoff (default 100ms)
	MaxBackoff   time.Duration // backoff cap, applied after Retry-After too (default 5s)
	// DeadlineMS, when > 0, stamps X-Deadline-Ms on every request so the
	// server cancels work that outlives the client's patience; 504
	// responses land in the "deadline" outcome bucket.
	DeadlineMS int
}

// Result is one run's client-side view.
type Result struct {
	Sent      uint64
	Completed uint64
	Errors    uint64
	Elapsed   time.Duration
	// AchievedRate is completed requests per second of elapsed time.
	AchievedRate float64
	// MaxLag is the worst gap between a request's scheduled arrival and
	// the moment the generator actually launched it — near zero for a
	// healthy run; large values mean the client, not the server, was the
	// bottleneck and the tail is understated.
	MaxLag time.Duration
	// Overall/ByKind are latency distributions measured from scheduled
	// arrival to response fully read — accepted (2xx) requests only, so
	// quantiles describe the latency of served work; fast rejections would
	// otherwise drag the tail down exactly when the server is overloaded.
	Overall *obs.HistSnapshot
	ByKind  map[string]*obs.HistSnapshot
	// StatusCodes counts responses by HTTP code (0 = transport error).
	StatusCodes map[int]uint64
	// Outcomes buckets every arrival's final disposition: "ok" (2xx),
	// "shed" (429 after retries), "deadline" (504), "error" (transport
	// failure or any other >= 400).
	Outcomes map[string]uint64
	// Retried counts retry attempts actually performed (not arrivals).
	Retried uint64
}

func (c Config) withDefaults() Config {
	if c.Dataset == "" {
		c.Dataset = "UU"
	}
	if c.Scale == "" {
		c.Scale = "tiny"
	}
	if len(c.Kernels) == 0 {
		c.Kernels = algorithms.Names()
	}
	if c.BatchEdges <= 0 {
		c.BatchEdges = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// backoff computes the wait before retry number attempt (0-based): the
// server's Retry-After seconds when parseable, else base doubled per
// attempt, capped at max either way, plus up to 50% deterministic jitter
// keyed on (request, attempt) so a fleet of identically-seeded clients
// spreads out instead of re-stampeding on the same tick.
func backoff(base, max time.Duration, attempt int, retryAfter string, key uint64) time.Duration {
	d := base << uint(attempt)
	if d <= 0 || d > max { // <= 0 catches shift overflow
		d = max
	}
	if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
		d = time.Duration(s) * time.Second
		if d > max {
			d = max
		}
	}
	// splitmix64-style scramble of the key for the jitter fraction.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d + time.Duration(z%uint64(d/2+1))
}

// outcome classifies one arrival's final response.
func outcome(code int, err error) string {
	switch {
	case err != nil:
		return "error"
	case code == http.StatusTooManyRequests:
		return "shed"
	case code == http.StatusGatewayTimeout:
		return "deadline"
	case code >= 400:
		return "error"
	default:
		return "ok"
	}
}

// post issues one request with the loadgen's standard headers (content
// type, optional X-Deadline-Ms deadline budget).
func post(ctx context.Context, client *http.Client, cfg Config, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.DeadlineMS > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(cfg.DeadlineMS))
	}
	return client.Do(req)
}

// probe asks the server for the graph's vertex count (one uncounted
// query), so update batches stay within vertex bounds.
func probe(client *http.Client, cfg Config) (uint32, error) {
	body, _ := json.Marshal(map[string]any{
		"dataset": cfg.Dataset, "scale": cfg.Scale, "kernel": "cc", "k": 1,
	})
	resp, err := client.Post(cfg.BaseURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("loadgen: probe query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return 0, fmt.Errorf("loadgen: probe query: %s: %s", resp.Status, msg)
	}
	var out struct {
		Vertices uint32 `json:"vertices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("loadgen: probe response: %w", err)
	}
	if out.Vertices == 0 {
		return 0, fmt.Errorf("loadgen: probe reported an empty graph")
	}
	return out.Vertices, nil
}

// request is one scheduled arrival, pre-generated so the firing loop does
// no RNG work (and the sequence is independent of completion timing).
type request struct {
	due  time.Duration // offset from start
	kind string        // "query" or "update"
	body []byte
}

// plan pre-generates the full arrival schedule.
func plan(cfg Config, vertices uint32, rng *rand.Rand) []request {
	n := int(cfg.Rate * cfg.Duration.Seconds())
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		r := request{due: time.Duration(i) * interval}
		if rng.Float64() < cfg.UpdateFraction {
			r.kind = "update"
			edges := make([]map[string]any, cfg.BatchEdges)
			for j := range edges {
				edges[j] = map[string]any{
					"src":    rng.Int63n(int64(vertices)),
					"dst":    rng.Int63n(int64(vertices)),
					"weight": 1 + rng.Int63n(255),
				}
			}
			r.body, _ = json.Marshal(map[string]any{
				"dataset": cfg.Dataset, "scale": cfg.Scale, "edges": edges,
			})
		} else {
			r.kind = "query"
			q := map[string]any{
				"dataset": cfg.Dataset, "scale": cfg.Scale,
				"kernel": cfg.Kernels[i%len(cfg.Kernels)], "k": 5,
			}
			if cfg.SrcSpread > 0 {
				q["src"] = rng.Int63n(cfg.SrcSpread)
			}
			r.body, _ = json.Marshal(q)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// Run executes one open-loop load run against a live serve instance.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" || cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: BaseURL, Rate and Duration are required")
	}
	client := &http.Client{Timeout: cfg.Timeout}
	vertices, err := probe(client, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := plan(cfg, vertices, rng)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("loadgen: rate %.3g over %v schedules zero arrivals", cfg.Rate, cfg.Duration)
	}

	hists := map[string]*obs.Histogram{"query": obs.NewHistogram(), "update": obs.NewHistogram()}
	var (
		mu        sync.Mutex
		codes     = map[int]uint64{}
		outcomes  = map[string]uint64{}
		completed atomic.Uint64
		errors    atomic.Uint64
		retried   atomic.Uint64
		maxLagNS  atomic.Int64
		wg        sync.WaitGroup
	)

	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		// Open loop: sleep until the scheduled arrival, never until a
		// completion. A behind-schedule generator fires immediately and
		// the lag lands in the measured latency.
		lag := time.Since(start) - r.due
		if lag < 0 {
			select {
			case <-time.After(-lag):
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		} else if ns := lag.Nanoseconds(); ns > maxLagNS.Load() {
			maxLagNS.Store(ns)
		}
		wg.Add(1)
		go func(reqIdx int) {
			defer wg.Done()
			scheduled := start.Add(r.due)
			path := "/query"
			if r.kind == "update" {
				path = "/update"
			}
			var (
				code int
				err  error
			)
			for attempt := 0; ; attempt++ {
				var resp *http.Response
				resp, err = post(ctx, client, cfg, path, r.body)
				retryAfter := ""
				code = 0
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					retryAfter = resp.Header.Get("Retry-After")
					resp.Body.Close()
					code = resp.StatusCode
				}
				// Only a shed (429) is worth retrying: a 504 already spent
				// its deadline and an error will not improve on replay.
				if code != http.StatusTooManyRequests || attempt >= cfg.Retries {
					break
				}
				retried.Add(1)
				interrupted := false
				select {
				case <-time.After(backoff(cfg.RetryBackoff, cfg.MaxBackoff, attempt,
					retryAfter, uint64(reqIdx)<<8|uint64(attempt))):
				case <-ctx.Done():
					interrupted = true
				}
				if interrupted {
					break // record the 429 as the final word
				}
			}
			out := outcome(code, err)
			if out == "ok" {
				// Latency from scheduled arrival to response fully read —
				// backoff waits included, since the client really waited.
				hists[r.kind].Observe(time.Since(scheduled).Nanoseconds())
			}
			completed.Add(1)
			if out == "error" {
				errors.Add(1)
			}
			mu.Lock()
			codes[code]++
			outcomes[out]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Sent:        uint64(len(reqs)),
		Completed:   completed.Load(),
		Errors:      errors.Load(),
		Retried:     retried.Load(),
		Elapsed:     elapsed,
		MaxLag:      time.Duration(maxLagNS.Load()),
		ByKind:      map[string]*obs.HistSnapshot{},
		StatusCodes: codes,
		Outcomes:    outcomes,
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Completed) / elapsed.Seconds()
	}
	overall := &obs.HistSnapshot{}
	for kind, h := range hists {
		snap := h.Snapshot()
		res.ByKind[kind] = snap
		overall.Merge(snap)
	}
	res.Overall = overall
	return res, nil
}

// Report renders the run human-readably (the piccolo-load output).
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "sent %d, completed %d, errors %d in %.2fs (%.1f req/s achieved, max sched lag %v)\n",
		r.Sent, r.Completed, r.Errors, r.Elapsed.Seconds(), r.AchievedRate, r.MaxLag.Round(time.Microsecond))
	fmt.Fprintf(w, "outcomes: ok=%d shed=%d deadline=%d error=%d (retries performed: %d)\n",
		r.Outcomes["ok"], r.Outcomes["shed"], r.Outcomes["deadline"], r.Outcomes["error"], r.Retried)
	for _, kind := range []string{"query", "update"} {
		snap := r.ByKind[kind]
		if snap == nil || snap.Count == 0 {
			continue
		}
		s := snap.Summary()
		fmt.Fprintf(w, "%-7s n=%-6d mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms\n",
			kind, s.Count, s.MeanMS, s.P50MS, s.P90MS, s.P99MS, s.P999MS, s.MaxMS)
	}
	if r.Overall != nil && r.Overall.Count > 0 {
		s := r.Overall.Summary()
		fmt.Fprintf(w, "%-7s n=%-6d mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms\n",
			"overall", s.Count, s.MeanMS, s.P50MS, s.P90MS, s.P99MS, s.P999MS, s.MaxMS)
	}
	for code, n := range r.StatusCodes {
		if code == 0 || code >= 400 {
			fmt.Fprintf(w, "  %d responses with code %d\n", n, code)
		}
	}
}
