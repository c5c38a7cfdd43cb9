package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one prepared HTTP call and what the oracle needs to know to
// check its answer.
type request struct {
	path   string // /query or /update
	body   []byte
	graph  string // harness-side graph name the query addresses
	kernel string
	src    int64
	stored bool // answered by the stored (segment) arm rather than the in-RAM one
}

// sample is one completed (or failed) call as the client saw it.
type sample struct {
	req    *request
	client int
	seq    int           // issue order across all clients
	start  time.Duration // since the window opened; for the paced writer, the due instant
	lat    time.Duration
	code   int    // HTTP status; 0 for a transport error
	body   []byte // kept only for oracle and trace samples
	traced bool   // sent with ?trace=1 (bypasses the result cache)
}

func (s sample) ok() bool { return s.code >= 200 && s.code < 300 }

// loader issues requests over a fixed number of connections.
type loader struct {
	base   string
	client *http.Client
	t0     time.Time // window start; sample.start is relative to it
	seq    atomic.Int64

	oracleEvery int // keep every Nth response body for the oracle
	// traceEvery: send every Nth query with ?trace=1 (0 = never). Set
	// between the parts of a traced window while the paced writer runs.
	traceEvery atomic.Int32
}

func newLoader(base string, conns int) *loader {
	return &loader{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
		oracleEvery: 16,
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do sends one request and reads the whole reply. start is the instant
// latency counts from (now, or the due instant of a paced request).
func (l *loader) do(ctx context.Context, client int, req *request, start time.Time) sample {
	seq := int(l.seq.Add(1)) - 1
	s := sample{req: req, client: client, seq: seq, start: start.Sub(l.t0)}
	url := l.base + req.path
	if n := int(l.traceEvery.Load()); n > 0 && req.path == "/query" && seq%n == n-1 {
		s.traced = true
		url += "?trace=1"
	}
	keep := s.traced || seq%l.oracleEvery == l.oracleEvery-1
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(req.body))
	if err == nil {
		hr.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = l.client.Do(hr); err == nil {
			s.code = resp.StatusCode
			if keep || resp.StatusCode != http.StatusOK {
				s.body, err = io.ReadAll(resp.Body)
			} else {
				_, err = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			if err != nil {
				s.code = 0 // a reply cut short is a transport error
			}
		}
	}
	s.lat = time.Since(start)
	return s
}

// closedLoop runs one goroutine per client; each sends its next request
// only after the previous reply, until next returns nil or ctx ends.
// next is called with the client index and must be safe for concurrent use.
func (l *loader) closedLoop(ctx context.Context, clients int, next func(client int) *request) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				req := next(c)
				if req == nil {
					return
				}
				per[c] = append(per[c], l.do(ctx, c, req, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// paced sends reqs on a fixed schedule (one every interval, starting at
// l.t0) over one connection. It is an open loop: latency counts from the
// due instant, so a stall is charged to every request it delays. maxLag is
// how late the generator itself ever was.
func (l *loader) paced(ctx context.Context, client int, reqs []*request, interval time.Duration) (samples []sample, maxLag time.Duration) {
	ready := l.t0 // when the connection was last free
	for i, req := range reqs {
		due := l.t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return samples, maxLag
			}
		}
		if ctx.Err() != nil {
			return samples, maxLag
		}
		// The generator's own lateness: how long after it could have sent
		// (due, and the previous reply in) it actually did.
		if ready.Before(due) {
			ready = due
		}
		if lag := time.Since(ready); lag > maxLag {
			maxLag = lag
		}
		samples = append(samples, l.do(ctx, client, req, due))
		ready = time.Now()
	}
	return samples, maxLag
}
