package main

import (
	"context"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/engine"
	"piccolo/internal/fim"
	"piccolo/internal/graph"
	"piccolo/internal/mshr"
	"piccolo/internal/runner"
	"piccolo/internal/sim"
	"piccolo/internal/stream"
)

// Direct calls into single layers through their public functions, made by
// the traced run once the server has stopped. Each is the median of a few
// repetitions inside a harness span; they say what a layer costs on its
// own, which the end-to-end numbers cannot. A workload measures the layers
// it exercises: the engine and graph layers on serve-cold, the runner's
// lookup on serve-hot, the stream layer on serve-update, the simulator's
// components on sim-fig10.

// medianOf times fn reps times inside spans and returns the median.
func medianOf(spans *spanLog, name string, reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = spans.timed(name, fn)
	}
	return medianDur(ds)
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func (r *serveRun) layerMetrics() error {
	switch r.name {
	case "serve-cold":
		return r.engineAndGraphLayers()
	case "serve-hot":
		return r.runnerLayer()
	default:
		return r.streamLayer()
	}
}

func msF(d time.Duration) float64 { return float64(d) / 1e6 }
func usF(d time.Duration) float64 { return float64(d) / 1e3 }

// engineAndGraphLayers: engine supersteps per kernel at width nproc on the
// in-RAM graph and from the segment, and the graph layer's build, transpose
// and segment costs.
func (r *serveRun) engineAndGraphLayers() error {
	res, spans, workers := r.res, r.spans, runtime.GOMAXPROCS(0)
	reps := 3
	if r.o.smoke {
		reps = 1
	}
	run := func(e *engine.Engine, g graph.GraphStore, kernel string) *engine.Result {
		k, err := algorithms.New(kernel)
		if err != nil {
			panic(err) // the harness's own kernel lists
		}
		d := k.Descriptor()
		src := algorithms.ResolveSource(d, -1, g.NumVertices(), func() uint32 {
			v, _ := graph.HighestDegreeVertexStore(g)
			return v
		})
		return e.Run(k, src, algorithms.EffectiveMaxIters(d, 0, engine.DefaultMaxIters))
	}
	tw := graph.AsStore(r.tw)

	var e *engine.Engine
	res.set("engine.build_ms", msF(spans.timed("engine.New+first run", func() {
		e = engine.New(r.tw, engine.Config{Workers: workers})
		run(e, tw, "bfs")
	})))
	var last *engine.Result
	for _, k := range hotKernels {
		res.set("engine.run_ms."+k, msF(medianOf(spans, "engine.Run "+k, reps, func() { last = run(e, tw, k) })))
	}
	res.set("engine.topk_us", usF(medianOf(spans, "engine.TopK", 20*reps, func() {
		if _, err := engine.TopK(hotKernels[len(hotKernels)-1], last.Prop, topK); err != nil {
			panic(err)
		}
	})))

	ds, err := graph.ByName(twName)
	if err != nil {
		return err
	}
	res.set("graph.build_ms", msF(spans.timed("graph.Dataset.Build "+twName, func() { ds.Build(r.sz.scale) })))
	res.set("graph.csc_build_ms", msF(medianOf(spans, "graph.BuildCSC", reps, func() { graph.BuildCSC(r.tw) })))
	path := filepath.Join(r.tmp, "layer.pseg")
	var werr error
	res.set("graph.segment_write_ms", msF(spans.timed("graph.WriteSegmentFile", func() { werr = r.kn.WriteSegmentFile(path) })))
	if werr != nil {
		return werr
	}
	var seg *graph.Segment
	res.set("graph.segment_open_ms", msF(spans.timed("graph.OpenSegment", func() { seg, werr = graph.OpenSegment(path) })))
	if werr != nil {
		return werr
	}
	defer seg.Close()
	scan := func(name string, st graph.GraphStore) float64 {
		var edges uint64
		d := medianOf(spans, name, reps, func() {
			edges = 0
			st.ScanRows(func(_ uint32, dsts []uint32, _ []uint8) { edges += uint64(len(dsts)) })
		})
		return float64(edges) / d.Seconds() / 1e6
	}
	res.set("graph.segment_scan_medges_per_s", scan("graph.Segment.ScanRows", seg))
	res.set("graph.csr_scan_medges_per_s", scan("graph.CSR.ScanRows", graph.AsStore(r.kn)))
	res.set("graph.segment_bytes_per_edge", float64(seg.SizeBytes())/float64(seg.NumEdges()))

	se := engine.NewFromStore(seg, engine.Config{Workers: workers})
	for _, k := range []string{"bfs", "ppr"} {
		res.set("engine.run_store_ms."+k, msF(medianOf(spans, "engine.Run(store) "+k, reps, func() { run(se, seg, k) })))
	}
	return nil
}

// runnerLayer: the runner's query path in process — a hit on a warmed key
// (two cache lookups and nothing else) against a miss on a fresh one.
func (r *serveRun) runnerLayer() error {
	res, spans := r.res, r.spans
	ctx := context.Background()
	rn := runner.New(runtime.GOMAXPROCS(0))
	srcs, err := r.sources(r.rng, r.tw, 4)
	if err != nil {
		return err
	}
	q := func(src int64) runner.Query {
		return runner.Query{Dataset: twName, Kernel: "bfs", Scale: r.sz.scale, Src: src}
	}
	var prop []uint64
	var qerr error
	run := func(src int64) func() {
		return func() {
			out, _, err := rn.RunQueryInfo(ctx, q(src))
			if err != nil {
				qerr = err
				return
			}
			prop = out.Prop
		}
	}
	spans.timed("runner.RunQueryInfo first (graph+engine build)", run(srcs[0]))
	var miss []time.Duration
	for _, src := range srcs[1:] {
		miss = append(miss, spans.timed("runner.RunQueryInfo miss", run(src)))
	}
	res.set("runner.lookup_miss_ms", msF(medianDur(miss)))
	const hits = 2000
	d := spans.timed("runner.RunQueryInfo hit x2000", func() {
		for i := 0; i < hits; i++ {
			run(srcs[1+i%3])()
		}
	})
	if qerr != nil {
		return qerr
	}
	res.set("runner.lookup_hit_us", usF(d)/hits)
	res.set("engine.topk_us", usF(medianOf(spans, "engine.TopK", 60, func() {
		if _, err := engine.TopK("bfs", prop, topK); err != nil {
			panic(err)
		}
	})))
	return nil
}

// streamLayer: the streaming layer in process — applying a batch, an
// incremental repair, a full recompute with its O(V+E) materialisation, and
// a durable WAL append.
func (r *serveRun) streamLayer() error {
	res, spans := r.res, r.spans
	ctx := context.Background()
	reps := 9
	if r.o.smoke {
		reps = 3
	}
	d := stream.New(r.tw, stream.Config{Workers: runtime.GOMAXPROCS(0)})
	srcs, err := r.sources(r.rng, r.tw, 1)
	if err != nil {
		return err
	}
	var qerr error
	query := func(kernel string, src int64) func() {
		return func() {
			if _, _, err := d.QueryCtx(ctx, kernel, src, 0); err != nil {
				qerr = err
			}
		}
	}
	next := 0
	apply := func() {
		if _, err := d.ApplyUpdates(r.batches[next%len(r.batches)]); err != nil {
			qerr = err
		}
		next++
	}
	apply()
	query("bfs", srcs[0])() // converge, so later bfs queries are repairs
	var applies, repairs, fulls []time.Duration
	for i := 0; i < reps; i++ {
		applies = append(applies, spans.timed("stream.ApplyUpdates", apply))
		repairs = append(repairs, spans.timed("stream.QueryCtx bfs (repair)", query("bfs", srcs[0])))
		fulls = append(fulls, spans.timed("stream.QueryCtx kcore (full)", query("kcore", 3)))
	}
	if qerr != nil {
		return qerr
	}
	res.set("stream.apply_us", usF(medianDur(applies)))
	if _, measured := res.values["stream.repair_ms"]; !measured {
		res.set("stream.repair_ms", msF(medianDur(repairs)))
	}
	res.set("stream.full_ms", msF(medianDur(fulls)))

	// Materialized is memoised per version, so each timed call follows a
	// fresh batch, as each full recompute on the serving path does.
	ov := stream.NewOverlay(r.tw)
	mats := make([]time.Duration, 3)
	for i := range mats {
		if err := ov.Apply(r.batches[i%len(r.batches)]); err != nil {
			return err
		}
		mats[i] = spans.timed("stream.Overlay.Materialized", func() { ov.Materialized() })
	}
	res.set("stream.materialize_ms", msF(medianDur(mats)))

	wal, _, err := stream.OpenWAL(filepath.Join(r.tmp, "layer-wal"), stream.WALOptions{})
	if err != nil {
		return err
	}
	defer wal.Close()
	ver := uint64(0)
	var werr error
	res.set("stream.wal_append_us", usF(medianOf(spans, "stream.WAL.Append+Sync", 4*reps, func() {
		ver++
		off, err := wal.Append(ver, r.batches[int(ver)%len(r.batches)])
		if err == nil {
			err = wal.Sync(off)
		}
		if err != nil {
			werr = err
		}
	})))
	return werr
}

// simComponentMetrics: micro-runs of the simulator's components through
// their public APIs (host time; what they simulate is not reported).
func simComponentMetrics(res *result, spans *spanLog, smoke bool) {
	n, reqs := 200_000, 50_000
	if smoke {
		n, reqs = n/20, reqs/20
	}

	d := spans.timed("sim.Queue schedule+run", func() {
		var q sim.Queue
		fired := 0
		for i := 0; i < n; i++ {
			q.Schedule(uint64(i%4096), func() { fired++ })
		}
		q.Drain()
	})
	res.set("sim.events_per_s", float64(n)/d.Seconds())

	d = spans.timed("dram.System submit+drain", func() {
		var q sim.Queue
		mem := dram.MustNew(dram.DDR4(16), &q)
		for i := 0; i < reqs; i++ {
			mem.Submit(&dram.Request{Kind: dram.ReqRead, Addr: uint64(i) * 4160, Class: dram.ClassTopology})
			if i%64 == 63 {
				q.Drain() // bound the controller queues like a windowed core
			}
		}
		q.Drain()
	})
	res.set("dram.reqs_per_s", float64(reqs)/d.Seconds())

	d = spans.timed("cache.Piccolo access", func() {
		c, err := cache.NewPiccolo(32<<10, cache.LRU)
		if err != nil {
			panic(err) // fixed, valid geometry
		}
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.Access((x%(1<<20))&^7, i%4 == 0)
		}
	})
	res.set("cache.access_ns", float64(d.Nanoseconds())/float64(n))

	d = spans.timed("mshr.Collection read miss", func() {
		c := mshr.NewCollection(64, 8)
		for i := 0; i < n; i++ {
			addr := uint64(i) * 8
			c.ReadMiss(addr, addr>>13)
		}
		c.Drain()
	})
	res.set("mshr.readmiss_ns", float64(d.Nanoseconds())/float64(n))

	d = spans.timed("fim.Microbench stride 8", func() {
		if _, err := fim.Microbench(fim.DefaultConfig(), 256<<10, 8, false); err != nil {
			panic(err) // fixed, valid configuration
		}
	})
	res.set("fim.microbench_ms", msF(d))
}
