package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"piccolo/internal/graph"
	"piccolo/internal/runner"
)

// FuzzRequestDecode feeds arbitrary bodies to the /run, /query and /update
// wire decoders and to the runner's validation behind the first two. The
// runner's one worker slot is held by a parked query and the requests carry
// a context that is already done, so nothing past validation runs: no
// simulation and no engine run. Nothing may panic, and every rejection must
// map to 400 through fail.
func FuzzRequestDecode(f *testing.F) {
	for _, c := range badRequests {
		body, _ := json.Marshal(c.body)
		f.Add(body)
	}
	for _, q := range badQueries {
		body, _ := json.Marshal(q)
		f.Add(body)
	}
	for _, body := range badUpdates {
		f.Add([]byte(body))
	}
	good, _ := json.Marshal(tinyRequest())
	f.Add(good)

	s := newServer(1)
	gate := &parkedCtx{Context: context.Background(), reached: make(chan struct{}), release: make(chan struct{})}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		s.runner.RunQueryInfo(gate, runner.Query{Dataset: "SW", Kernel: "sssp", Scale: graph.ScaleTiny, Src: 1})
	}()
	<-gate.reached
	f.Cleanup(func() { close(gate.release); <-parked })
	done, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		rejected := func(path string, err error) {
			t.Helper()
			if err == nil || errors.Is(err, context.Canceled) {
				return // accepted, and stopped at the held slot
			}
			rec := httptest.NewRecorder()
			s.fail(rec, err, nil)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: %v answered %d, want 400", path, body, err, rec.Code)
			}
		}
		decodeBody := func(v any) error {
			return decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), 1<<20, v)
		}

		var jq jobRequest
		err := decodeBody(&jq)
		if err == nil {
			var job runner.Job
			if job, err = jq.job(); err == nil {
				job.Config.Scale = graph.ScaleTiny // bounds the graph a source check builds
				_, err = s.runner.Sweep(done, []runner.Job{job})
			}
		}
		rejected("/run", err)

		var qq queryRequest
		if err = decodeBody(&qq); err == nil {
			var q runner.Query
			if q, _, err = qq.query(); err == nil {
				q.Scale = graph.ScaleTiny
				_, _, err = s.runner.RunQueryInfo(done, q)
			}
		}
		rejected("/query", err)

		var uq updateRequest
		if err = decodeBody(&uq); err == nil {
			_, _, err = uq.update()
		}
		rejected("/update", err)
	})
}
