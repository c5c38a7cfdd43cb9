package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
)

// The oracle recomputes answers with algorithms.RunReference — the serial
// executor the engine is specified against — on the harness's own copy of
// the graph, ranks them the way the server does, and compares the reply's
// top-k exactly. It runs after the timed window, so its cost never shows
// in a metric.

type oracleKey struct {
	graph, kernel string
	src           int64
}

// keyOf is the identity of a query's answer: a kernel that ignores its
// source has one answer per graph, whatever source the request carried.
func keyOf(req *request) oracleKey {
	src := req.src
	if k, err := algorithms.New(req.kernel); err == nil && k.Descriptor().Source == algorithms.SourceIgnored {
		src = -1
	}
	return oracleKey{req.graph, req.kernel, src}
}

// expected is the reference top-k for one query.
func expected(g *graph.CSR, kernel string, src int64) ([]engine.VertexScore, error) {
	k, err := algorithms.New(kernel)
	if err != nil {
		return nil, err
	}
	d := k.Descriptor()
	s := algorithms.ResolveSource(d, src, g.V, func() uint32 {
		v, _ := graph.HighestDegreeVertex(g)
		return v
	})
	ref := algorithms.RunReference(g, k, s, algorithms.EffectiveMaxIters(d, maxIters(kernel), engine.DefaultMaxIters))
	return engine.TopKRanked(d, ref.Prop, topK)
}

// sameTop compares a reply's ranking with the reference, exactly: scores
// are float64s that survive JSON unchanged.
func sameTop(reply []byte, want []engine.VertexScore) error {
	var body struct {
		Top []engine.VertexScore `json:"top"`
	}
	if err := json.Unmarshal(reply, &body); err != nil {
		return err
	}
	if len(body.Top) != len(want) {
		return fmt.Errorf("top has %d entries, reference %d", len(body.Top), len(want))
	}
	for i := range want {
		if body.Top[i] != want[i] {
			return fmt.Errorf("top[%d] = %+v, reference %+v", i, body.Top[i], want[i])
		}
	}
	return nil
}

// checkAnswers verifies every response whose body the loader kept (each
// 16th, and each traced one). serve-update's replies each belong to a
// version that is gone by now, so it is checked differently: once the
// writer is done, one query per reader kernel is answered at the final
// version and compared with the reference on the base graph plus every
// batch sent.
func (r *serveRun) checkAnswers(ctx context.Context, w *window) error {
	graphs := map[string]*graph.CSR{twName: r.tw}
	if r.kn != nil {
		graphs[knName] = r.kn
	}
	var kept []sample
	if r.name == "serve-update" {
		edges := r.tw.Edges()
		for _, b := range r.batches {
			for _, e := range b {
				edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
			}
		}
		graphs[twName] = graph.FromEdges(twName, r.tw.V, edges)
		srcs, err := r.sources(r.rng, r.tw, 1)
		if err != nil {
			return err
		}
		r.ld.oracleEvery = 1
		r.ld.traceEvery.Store(0)
		for _, k := range updateKernels {
			src := srcs[0]
			if k == "kcore" {
				src = 3
			}
			s := r.ld.do(ctx, 0, r.query(r.tw, k, src), time.Now())
			r.res.Attempted++
			if !s.ok() {
				r.res.fail(1, "final-version %s query: status %d %s", k, s.code, s.body)
				continue
			}
			var v struct {
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(s.body, &v); err != nil || v.Version != uint64(len(r.batches)) {
				r.res.fail(1, "final-version %s query answered at version %d, want %d", k, v.Version, len(r.batches))
				continue
			}
			kept = append(kept, s)
		}
	} else {
		for _, s := range w.all() {
			if s.ok() && s.body != nil {
				kept = append(kept, s)
			}
		}
	}

	// Reference runs are memoised per key and spread over the cores; the
	// server is idle by now.
	want := map[oracleKey][]engine.VertexScore{}
	for _, s := range kept {
		want[keyOf(s.req)] = nil
	}
	keys := make(chan oracleKey)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for i := 0; i < r.o.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				top, err := expected(graphs[k.graph], k.kernel, k.src)
				mu.Lock()
				want[k] = top
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	t0 := time.Now()
	todo := make([]oracleKey, 0, len(want))
	for k := range want {
		todo = append(todo, k)
	}
	for _, k := range todo {
		keys <- k
	}
	close(keys)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	wrong := 0
	for _, s := range kept {
		if err := sameTop(s.body, want[keyOf(s.req)]); err != nil {
			wrong++
			r.res.fail(1, "wrong answer for %s: %v", s.req.body, err)
		}
	}
	r.res.Info["oracle"] = map[string]any{"checked": len(kept), "wrong": wrong, "reference_runs": len(want), "seconds": time.Since(t0).Seconds()}
	return nil
}
