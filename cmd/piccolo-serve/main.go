// Command piccolo-serve exposes the simulation engine over HTTP as a
// batch API backed by the sweep runner (DESIGN.md §7): POST /run accepts
// one job, POST /sweep accepts a batch, and both call the runner directly,
// whose one shared worker pool and content-addressed single-flight cache
// make concurrent clients asking for overlapping configurations simulate
// each cell once.
// POST /query serves functional kernel executions and POST /update streams
// edge insertions into a dataset (DESIGN.md §10) — queries after an update
// reflect the new graph, served by incremental repair where possible, and
// carry the graph version they were computed on.
//
// -graph-dir loads pre-built compressed graph segments (*.pseg, written by
// cmd/graphgen) at startup: each file is mmap'd and served
// read-only under its embedded graph name, with no rebuild — queries
// against a stored graph stream adjacency straight from the page cache
// (DESIGN.md §14).
//
// Usage:
//
//	piccolo-serve [-addr :8642] [-workers N] [-graph-dir DIR] [-wal-dir DIR]
//
// See DESIGN.md §8 for the request/response schema and a quickstart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/cache"
	"piccolo/internal/core"
	"piccolo/internal/dram"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
	"piccolo/internal/runner"
	"piccolo/internal/stream"
)

// jobRequest is the JSON wire form of one runner.Job. Zero values mean
// "paper default", exactly as in core.Config; Src additionally defaults
// to -1 (highest-degree vertex) rather than vertex 0.
type jobRequest struct {
	Dataset string `json:"dataset"`
	System  string `json:"system"`
	Kernel  string `json:"kernel"`
	Scale   string `json:"scale,omitempty"`

	// Memory names a preset (DDR4x4, DDR4x8, DDR4x16, LPDDR4, GDDR5,
	// HBM, or any of those with an "-enh" suffix); Channels/Ranks > 0
	// override the preset geometry (Fig. 16 style).
	Memory   string `json:"memory,omitempty"`
	Channels int    `json:"channels,omitempty"`
	Ranks    int    `json:"ranks,omitempty"`

	TileScale   int    `json:"tile_scale,omitempty"`
	Untiled     bool   `json:"untiled,omitempty"`
	CacheDesign string `json:"cache_design,omitempty"`
	MaxIters    int    `json:"max_iters,omitempty"`
	StreamDepth int    `json:"stream_depth,omitempty"`
	EdgeCentric bool   `json:"edge_centric,omitempty"`
	Src         *int64 `json:"src,omitempty"`
}

// job validates the request and lowers it onto a runner.Job.
func (q jobRequest) job() (runner.Job, error) {
	if q.Dataset == "" {
		return runner.Job{}, fmt.Errorf("missing dataset")
	}
	for name, v := range map[string]int{
		"tile_scale": q.TileScale, "max_iters": q.MaxIters,
		"stream_depth": q.StreamDepth, "channels": q.Channels, "ranks": q.Ranks,
	} {
		if v < 0 {
			return runner.Job{}, fmt.Errorf("negative %s", name)
		}
	}
	if _, err := graph.ByName(q.Dataset); err != nil {
		return runner.Job{}, err
	}
	sys := accel.Piccolo
	if q.System != "" {
		var err error
		if sys, err = accel.ParseSystem(q.System); err != nil {
			return runner.Job{}, err
		}
	}
	kernel := q.Kernel
	if kernel == "" {
		kernel = "pr"
	}
	if _, err := algorithms.New(kernel); err != nil {
		return runner.Job{}, err
	}
	sc, err := graph.ParseScale(q.Scale)
	if err != nil {
		return runner.Job{}, err
	}
	if q.CacheDesign != "" {
		if _, err := cache.New(q.CacheDesign, 8<<10, 8); err != nil {
			return runner.Job{}, err
		}
	}
	mem, err := dram.ByName(q.Memory)
	if err != nil {
		return runner.Job{}, err
	}
	if (q.Memory == "" || q.Memory == "DDR4x16") && q.Channels == 0 && q.Ranks == 0 {
		// Canonicalize the spelled-out default to the zero value, so an
		// explicit "DDR4x16" and an omitted memory field hash to the same
		// content address and share one cache entry.
		mem = dram.Config{}
	} else if q.Channels > 0 || q.Ranks > 0 {
		ch, ra := mem.Channels, mem.Ranks
		if q.Channels > 0 {
			ch = q.Channels
		}
		if q.Ranks > 0 {
			ra = q.Ranks
		}
		mem = dram.WithChannels(mem, ch, ra)
	}
	src := int64(-1)
	if q.Src != nil && *q.Src >= 0 {
		src = *q.Src // any negative means "default source", spelled -1
	}
	return runner.Job{Dataset: q.Dataset, Config: core.Config{
		System:      sys,
		Mem:         mem,
		Kernel:      kernel,
		Scale:       sc,
		TileScale:   q.TileScale,
		Untiled:     q.Untiled,
		CacheDesign: q.CacheDesign,
		MaxIters:    q.MaxIters,
		StreamDepth: q.StreamDepth,
		EdgeCentric: q.EdgeCentric,
		Src:         src,
	}}, nil
}

// jobResponse is the JSON wire form of one result (vertex properties are
// omitted — they are graph-sized).
type jobResponse struct {
	Key        string `json:"key"` // content address of the job
	Dataset    string `json:"dataset"`
	System     string `json:"system"`
	Kernel     string `json:"kernel"`
	Cycles     uint64 `json:"cycles"`
	Iterations int    `json:"iterations"`
	Edges      uint64 `json:"edges"`

	ReadTxns  uint64 `json:"read_txns"`
	WriteTxns uint64 `json:"write_txns"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	OffChipGBps  float64 `json:"offchip_gbps"`
	InternalGBps float64 `json:"internal_gbps"`
	TileWidth    uint32  `json:"tile_width"`

	EnergyPJ struct {
		Accelerator float64 `json:"accelerator"`
		Cache       float64 `json:"cache"`
		DRAMRead    float64 `json:"dram_read"`
		DRAMWrite   float64 `json:"dram_write"`
		DRAMIO      float64 `json:"dram_io"`
		Other       float64 `json:"other"`
		Total       float64 `json:"total"`
	} `json:"energy_pj"`
}

func response(j runner.Job, r *core.Result) jobResponse {
	out := jobResponse{
		Key:          j.Key(),
		Dataset:      j.Dataset,
		System:       r.System.String(),
		Kernel:       j.Config.Kernel,
		Cycles:       r.Cycles,
		Iterations:   r.Iterations,
		Edges:        r.EdgesProcessed,
		ReadTxns:     r.Mem.ReadTxns,
		WriteTxns:    r.Mem.WriteTxns,
		CacheHitRate: r.Cache.HitRate(),
		OffChipGBps:  r.OffChipGBps,
		InternalGBps: r.InternalGBps,
		TileWidth:    r.TileWidth,
	}
	out.EnergyPJ.Accelerator = r.Energy.Accelerator
	out.EnergyPJ.Cache = r.Energy.Cache
	out.EnergyPJ.DRAMRead = r.Energy.DRAMRead
	out.EnergyPJ.DRAMWrite = r.Energy.DRAMWrite
	out.EnergyPJ.DRAMIO = r.Energy.DRAMIO
	out.EnergyPJ.Other = r.Energy.Other
	out.EnergyPJ.Total = r.Energy.Total()
	return out
}

// queryRequest is the JSON wire form of one runner.Query plus the response
// shaping knob k (top-k size) and an optional version pin.
type queryRequest struct {
	Dataset  string `json:"dataset"`
	Kernel   string `json:"kernel"`
	Scale    string `json:"scale,omitempty"`
	Src      *int64 `json:"src,omitempty"`
	MaxIters int    `json:"max_iters,omitempty"`
	TopK     int    `json:"k,omitempty"` // default 10, capped at 1000
	// Version, when present, pins the query to that graph version: if the
	// result would reflect any other version (an update landed, or the
	// client is behind), the server answers 409 Conflict with the current
	// version instead of silently serving different-state data.
	Version *uint64 `json:"version,omitempty"`
}

// query validates the request and lowers it onto a runner.Query plus the
// top-k size. Dataset existence is checked by the handler against the
// runner (which also knows the stored graphs loaded via -graph-dir), not
// here against the generator registry alone.
func (q queryRequest) query() (runner.Query, int, error) {
	if q.Dataset == "" {
		return runner.Query{}, 0, fmt.Errorf("missing dataset")
	}
	kernel := q.Kernel
	if kernel == "" {
		kernel = "pr"
	}
	if _, err := algorithms.New(kernel); err != nil {
		return runner.Query{}, 0, err
	}
	sc, err := graph.ParseScale(q.Scale)
	if err != nil {
		return runner.Query{}, 0, err
	}
	if q.MaxIters < 0 {
		return runner.Query{}, 0, fmt.Errorf("negative max_iters")
	}
	topK := q.TopK
	switch {
	case topK < 0:
		return runner.Query{}, 0, fmt.Errorf("negative k")
	case topK == 0:
		topK = 10
	case topK > 1000:
		topK = 1000
	}
	src := int64(-1)
	if q.Src != nil && *q.Src >= 0 {
		src = *q.Src
	}
	return runner.Query{
		Dataset:  q.Dataset,
		Kernel:   kernel,
		Scale:    sc,
		Src:      src,
		MaxIters: q.MaxIters,
	}, topK, nil
}

// queryResponse is the JSON wire form of one functional query result.
// Version is the graph version (applied update batches) the result was
// computed on; Mode records the serving path ("cached", "engine",
// "incremental", "full").
type queryResponse struct {
	Key        string               `json:"key"`
	Dataset    string               `json:"dataset"`
	Kernel     string               `json:"kernel"`
	Version    uint64               `json:"version"`
	Mode       string               `json:"mode"`
	Vertices   uint32               `json:"vertices"`
	Edges      uint64               `json:"edges"`
	Iterations int                  `json:"iterations"`
	EdgeVisits uint64               `json:"edge_visits"`
	Top        []engine.VertexScore `json:"top"`
	// Trace is present only for ?trace=1 requests: the execution's
	// per-superstep (or repair) spans (DESIGN.md §11).
	Trace *traceResponse `json:"trace,omitempty"`
}

// traceResponse is the inline execution trace returned by ?trace=1. Spans and
// TotalNS are the execution's own record (one span per superstep, or the
// repair); Rank is the ranking that followed it, kept beside them so the
// execution's span list and attributed time mean what they always did.
type traceResponse struct {
	TotalNS int64      `json:"total_ns"`
	Spans   []obs.Span `json:"spans"`
	Rank    obs.Span   `json:"rank"`
}

// updateRequest is the JSON wire form of POST /update: a batch of edge
// insertions for one dataset. Edges is decoded and range-validated by
// stream.DecodeBatch (the fuzzed decoder).
type updateRequest struct {
	Dataset string          `json:"dataset"`
	Scale   string          `json:"scale,omitempty"`
	Edges   json.RawMessage `json:"edges"`
}

// updateResponse acknowledges an applied batch with the graph's new
// version and edge count.
type updateResponse struct {
	Dataset    string `json:"dataset"`
	Version    uint64 `json:"version"`
	Applied    int    `json:"applied"`
	TotalEdges uint64 `json:"total_edges"`
}

// server wires the HTTP handlers to one shared runner, plus the
// observability state (obs.go): per-endpoint instruments in the
// runner's shared registry, a request-ID sequence, and an optional
// structured access logger (nil disables logging — tests).
type server struct {
	runner *runner.Runner

	started   time.Time
	bootID    string
	reqSeq    atomic.Uint64
	access    *log.Logger
	endpoints []*endpointMetrics
	pprof     bool

	// adm, when non-nil, gates the work endpoints (admission.go); nil
	// admits everything (tests, default flags off).
	adm *admission
	// defaultDeadline is the per-request budget when the client sends no
	// X-Deadline-Ms header (0 = none); maxDeadline clamps whatever budget
	// results, including "none" (0 = no clamp).
	defaultDeadline time.Duration
	maxDeadline     time.Duration
	// deadlineHits counts requests answered 504 because their deadline
	// expired mid-execution.
	deadlineHits *obs.Counter
}

// canonicalize collapses client-distinct configs that simulate
// identically onto one cache key: a source vertex at or beyond the
// graph's vertex count selects the highest-degree default exactly as
// core.Run does, so it is rewritten to -1 — otherwise a client looping
// over arbitrary src values would mint unbounded distinct cache entries
// for the same simulation. The graph lookup is memoized per
// (dataset, scale) in the runner.
func (s *server) canonicalize(job runner.Job) (runner.Job, error) {
	if job.Config.Src >= 0 {
		g, err := s.runner.Graph(job.Dataset, job.Config.Scale)
		if err != nil {
			return job, err
		}
		if job.Config.Src >= int64(g.V) {
			job.Config.Src = -1
		}
	}
	return job, nil
}

func newServer(workers int) *server {
	r := runner.New(workers)
	s := &server{
		runner:  r,
		started: time.Now(),
		bootID:  newBootID(),
	}
	s.deadlineHits = r.Metrics().Counter("piccolo_http_deadline_exceeded_total",
		"Requests answered 504 because their deadline expired mid-execution.")
	return s
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	// Work endpoints go behind the admission gate (outside instrument, so
	// shed 429s never pollute the latency histograms the p99 breaker
	// reads) and the deadline middleware (inside instrument, so 504s do
	// count as slow requests — a deadline blown IS tail latency).
	work := func(path string, h http.HandlerFunc) http.HandlerFunc {
		wrapped := s.instrument(path, s.withDeadline(h))
		if s.adm != nil {
			s.adm.watch(s.endpoints[len(s.endpoints)-1].latency)
		}
		return s.gate(wrapped)
	}
	mux.HandleFunc("POST /run", work("/run", s.handleRun))
	mux.HandleFunc("POST /sweep", work("/sweep", s.handleSweep))
	mux.HandleFunc("POST /query", work("/query", s.handleQuery))
	mux.HandleFunc("POST /update", work("/update", s.handleUpdate))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	if s.pprof {
		mountPprof(mux)
	}
	return mux
}

// withDeadline derives the request's context budget: the client's
// X-Deadline-Ms header if present, else the server default, the result
// clamped by the server max (which also bounds "no deadline" requests
// when set). A zero effective budget leaves the request's own context
// untouched.
func (s *server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		budget := s.defaultDeadline
		if v := r.Header.Get("X-Deadline-Ms"); v != "" {
			ms, err := strconv.Atoi(v)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("X-Deadline-Ms must be a positive integer, got %q", v))
				return
			}
			budget = time.Duration(ms) * time.Millisecond
		}
		if s.maxDeadline > 0 && (budget <= 0 || budget > s.maxDeadline) {
			budget = s.maxDeadline
		}
		if budget <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// deadlineError reports whether err is the request's budget expiring (or
// the client going away) rather than a fault in the work itself.
func deadlineError(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// httpTimeout answers 504 for a deadline-terminated request. partial, when
// non-nil, carries the execution's progress at cancellation (DESIGN.md
// §13: the client paid for those supersteps; tell it what it got).
func (s *server) httpTimeout(w http.ResponseWriter, err error, partial map[string]any) {
	s.deadlineHits.Inc()
	body := map[string]any{"error": err.Error()}
	for k, v := range partial {
		body[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGatewayTimeout)
	json.NewEncoder(w).Encode(body)
}

// kernelError answers an unknown-kernel error with the one normalized
// shape every endpoint shares — HTTP 400 and
//
//	{"error": "...", "kernel": "<rejected name>", "supported": ["pr", ...]}
//
// — so clients can recover the rejected name and the server's kernel list
// without parsing the message. Reports false (and writes nothing) when err
// is not an unknown-kernel error.
func kernelError(w http.ResponseWriter, err error) bool {
	var uk *algorithms.UnknownKernelError
	if !errors.As(err, &uk) {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]any{
		"error":     uk.Error(),
		"kernel":    uk.Name,
		"supported": uk.Supported,
	})
	return true
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON marshals v fully before touching the ResponseWriter, so an
// encoding error yields one clean 500 instead of a 200 status line
// followed by a truncated body (json.NewEncoder writes incrementally and
// cannot take the status back once bytes are out).
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// handleRun simulates one job through the runner. The request's deadline
// covers the queue and any wait on an identical in-flight job; a simulation
// that has started runs to completion into the shared cache
// (runner.Runner.Run).
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var q jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	job, err := q.job()
	if err != nil {
		if kernelError(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if job, err = s.canonicalize(job); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	res, err := s.runner.Run(r.Context(), job)
	if err != nil {
		if deadlineError(err) {
			s.httpTimeout(w, err, nil)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, response(job, res))
}

// handleQuery runs a kernel functionally (no timing model) and returns the
// top-k vertices plus execution stats. Results are cached
// content-addressed like simulation jobs, with the graph's update version
// folded into the key (DESIGN.md §10) so an entry can never outlive the
// graph state it was computed on; the engine's worker count is not part of
// the identity because results are bit-identical at every width.
//
// ?trace=1 attaches a span recorder and returns the execution's
// per-superstep spans inline. Traced queries bypass the result cache —
// a cached result has no execution to trace — so the flag is a debugging
// tool, not a serving mode.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var tr *obs.Trace
	switch v := r.URL.Query().Get("trace"); v {
	case "":
	case "1", "true":
		tr = obs.NewTrace()
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("trace must be 1 or true, got %q", v))
		return
	}
	q, topK, err := req.query()
	if err != nil {
		if kernelError(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.runner.KnownDataset(q.Dataset) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("graph: unknown dataset %q", q.Dataset))
		return
	}
	if req.Version != nil {
		// Reject an already-stale pin before paying for an execution; the
		// post-execution check below still catches an update racing in.
		if cur := s.runner.GraphVersion(q.Dataset, q.Scale); cur != *req.Version {
			httpError(w, http.StatusConflict, fmt.Errorf(
				"graph %s is at version %d, not the requested %d", q.Dataset, cur, *req.Version))
			return
		}
	}
	res, info, err := s.runner.RunQueryInfo(r.Context(), q, tr)
	if err != nil {
		if deadlineError(err) {
			// A canceled query surfaces its partial progress: the engine
			// stops at a superstep boundary and reports how far it got
			// (iterations and edge visits, never a partial property array).
			partial := map[string]any{"mode": info.Mode}
			if res != nil {
				partial["iterations"] = res.Iterations
				partial["edge_visits"] = res.EdgeVisits
			}
			s.httpTimeout(w, err, partial)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Version != nil && *req.Version != info.Version {
		httpError(w, http.StatusConflict, fmt.Errorf(
			"graph %s is at version %d, not the requested %d", q.Dataset, info.Version, *req.Version))
		return
	}
	// The ranking comes from the entry the result was served from: computed
	// by the first request for it, a prefix of the kept one on every later hit
	// (runner.QueryInfo.TopK), so a cache hit never re-reads the vector.
	rankStart := time.Now()
	top, how, err := info.TopK(topK)
	rankDur := time.Since(rankStart)
	if err != nil {
		// An unknown kernel is the client's fault even this late (the 400
		// shape is the same one query() produces); anything else — a label
		// out of range, a kernel with no ranking — is a server-side bug.
		if kernelError(w, err) {
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	out := queryResponse{
		Key:        info.Key,
		Dataset:    q.Dataset,
		Kernel:     q.Kernel,
		Version:    info.Version,
		Mode:       info.Mode,
		Vertices:   info.Vertices,
		Edges:      info.Edges,
		Iterations: res.Iterations,
		EdgeVisits: res.EdgeVisits,
		Top:        top,
	}
	if tr != nil {
		out.Trace = &traceResponse{TotalNS: tr.TotalNS(), Spans: tr.Spans(), Rank: obs.Span{
			Name:    "rank",
			StartNS: rankStart.Sub(tr.Start()).Nanoseconds(),
			DurNS:   rankDur.Nanoseconds(),
			Attrs:   map[string]any{"how": how, "k": topK},
		}}
	}
	writeJSON(w, out)
}

// handleUpdate applies a batch of edge insertions to a dataset's streaming
// overlay (DESIGN.md §10). The first update for a dataset promotes it from
// the static engine to a DynamicEngine; the response carries the new graph
// version, which subsequent /query responses echo (and /query requests may
// pin). Malformed bodies, unknown datasets, out-of-range vertices and bad
// weights are all 400s and change nothing.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Dataset == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing dataset"))
		return
	}
	if _, stored := s.runner.StoredDigest(req.Dataset); stored {
		// Report read-only before the generator lookup: a stored name is a
		// known dataset even when no generator of that name exists.
		httpError(w, http.StatusBadRequest, fmt.Errorf(
			"stored graph %q is read-only (loaded from -graph-dir)", req.Dataset))
		return
	}
	if _, err := graph.ByName(req.Dataset); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := graph.ParseScale(req.Scale)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Edges) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing edges"))
		return
	}
	batch, err := stream.DecodeBatch(req.Edges, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ver, err := s.runner.ApplyUpdates(r.Context(), req.Dataset, sc, batch)
	if err != nil {
		if deadlineError(err) {
			// Refused before anything happened — updates are atomic, so a
			// deadline can only stop a batch at the door, never mid-apply.
			s.httpTimeout(w, err, nil)
			return
		}
		// The decoder cannot see vertex bounds (only the overlay knows V),
		// so bound violations surface here — still the client's fault.
		httpError(w, http.StatusBadRequest, err)
		return
	}
	total, err := s.runner.CurrentEdges(req.Dataset, sc)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, updateResponse{
		Dataset:    req.Dataset,
		Version:    ver,
		Applied:    len(batch),
		TotalEdges: total,
	})
}

// handleSweep simulates a batch and responds in submission order.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var q struct {
		Jobs []jobRequest `json:"jobs"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(q.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty sweep"))
		return
	}
	jobs := make([]runner.Job, len(q.Jobs))
	for i, jq := range q.Jobs {
		job, err := jq.job()
		if err != nil {
			if kernelError(w, err) {
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return
		}
		if job, err = s.canonicalize(job); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		jobs[i] = job
	}
	results, err := s.runner.Sweep(r.Context(), jobs)
	if err != nil {
		if deadlineError(err) {
			s.httpTimeout(w, err, nil)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]jobResponse, len(results))
	for i, res := range results {
		out[i] = response(jobs[i], res)
	}
	writeJSON(w, struct {
		Results []jobResponse `json:"results"`
	}{out})
}

// endpointStats is one endpoint's entry in /stats: the latency summary
// from the same histogram /metrics exports, plus the in-flight gauge.
type endpointStats struct {
	obs.LatencySummary
	InFlight int64 `json:"in_flight"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.runner.Stats()
	qst := s.runner.QueryStats()
	sst := s.runner.StreamStats()
	pushSteps, pullSteps := engine.SuperstepCounts()
	runWidth := map[string]uint64{}
	for w := 1; w <= s.runner.Workers(); w++ {
		if n := engine.WidthSupersteps(w); n > 0 {
			runWidth[strconv.Itoa(w)] = n
		}
	}
	endpoints := map[string]endpointStats{}
	for _, m := range s.endpoints {
		endpoints[m.path] = endpointStats{
			LatencySummary: m.latency.Snapshot().Summary(),
			InFlight:       m.inFlight.Value(),
		}
	}
	writeJSON(w, map[string]any{
		"workers":             s.runner.Workers(),
		"kernels":             algorithms.Capabilities(),
		"uptime_s":            time.Since(s.started).Seconds(),
		"graphs_loaded":       s.runner.GraphsLoaded(),
		"stored_graphs":       s.runner.StoredGraphs(),
		"cache_hits":          st.Hits,
		"cache_misses":        st.Misses,
		"cache_hit_rate":      st.HitRate(),
		"query_hits":          qst.Hits,
		"query_misses":        qst.Misses,
		"query_hit_rate":      qst.HitRate(),
		"query_invalidated":   qst.Invalidated,
		"updates_applied":     sst.Version,
		"edges_applied":       sst.EdgesApplied,
		"incremental_repairs": sst.IncrementalRepairs,
		"full_recomputes":     sst.FullRecomputes,
		"stream_cached":       sst.CachedServes,
		"compactions":         sst.Compactions,
		"repair_touched":      sst.RepairTouched,
		"repair_edges":        sst.RepairEdges,
		"repair_aborts":       sst.RepairAborts,
		"index_carried":       sst.IndexCarried,
		"index_rebuilt":       sst.IndexRebuilt,
		"stream_lock_wait_ms": float64(sst.LockWaitNs) / 1e6,
		"stream_lock_waits":   sst.LockWaits,
		"supersteps_push":     pushSteps,
		"supersteps_pull":     pullSteps,
		"run_width":           runWidth,
		"runs_inflight":       engine.RunsInflight(),
		"queue_wait":          s.runner.QueueWait(),
		"rank":                s.runner.RankStats(),
		"endpoints":           endpoints,
	})
}

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	workers := flag.Int("workers", 0, "parallel simulation workers; <= 0 selects GOMAXPROCS")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes heap contents; keep off unless profiling)")
	accessLog := flag.Bool("access-log", true, "emit one JSON access-log line per request to stderr")
	graphDir := flag.String("graph-dir", "", "directory of pre-built graph segments (*.pseg) to mmap and serve read-only at startup")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory for streaming updates; empty disables durability, non-empty replays any logs found there at startup")
	walSegment := flag.Int64("wal-segment", 0, "WAL segment size in bytes before checkpoint+rotate; <= 0 selects the default")
	defaultDeadline := flag.Duration("default-deadline", 0, "per-request deadline when the client sends no X-Deadline-Ms header; 0 means none")
	maxDeadline := flag.Duration("max-deadline", 0, "upper clamp on any request deadline, including requests with none; 0 means no clamp")
	maxInflight := flag.Int("max-inflight", 0, "admission cap on concurrently admitted work requests; 0 means unlimited")
	p99SLO := flag.Duration("p99-slo", 0, "shed with 429 while the windowed p99 of admitted requests exceeds this; 0 disables the breaker")
	sloWindow := flag.Duration("slo-window", 2*time.Second, "measurement window for the p99 breaker")
	sloSustain := flag.Int("slo-sustain", 2, "consecutive windows over (under) the SLO before shedding starts (stops)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to finish in-flight requests on SIGTERM/SIGINT before closing anyway")
	flag.Parse()

	s := newServer(*workers)
	s.pprof = *pprofOn
	s.defaultDeadline = *defaultDeadline
	s.maxDeadline = *maxDeadline
	if *accessLog {
		s.access = log.New(os.Stderr, "", 0)
	}
	if *maxInflight > 0 || *p99SLO > 0 {
		s.adm = newAdmission(s.runner.Metrics(), *maxInflight, *p99SLO, *sloWindow, *sloSustain)
	}
	if *graphDir != "" {
		infos, err := s.runner.OpenGraphDir(*graphDir)
		if err != nil {
			log.Fatalf("piccolo-serve: graph-dir: %v", err)
		}
		if len(infos) == 0 {
			log.Printf("piccolo-serve: graph-dir %s holds no %s segments", *graphDir, runner.SegmentExt)
		}
		for _, info := range infos {
			log.Printf("piccolo-serve: stored graph %s: %d vertices, %d edges, %d blocks, %d bytes, mmap=%v, digest %.12s",
				info.Name, info.Vertices, info.Edges, info.Blocks, info.Bytes, info.Mapped, info.Digest)
		}
	}
	if *walDir != "" {
		recs, err := s.runner.EnableWAL(context.Background(), *walDir, *walSegment)
		if err != nil {
			log.Fatalf("piccolo-serve: wal recovery: %v", err)
		}
		for _, rec := range recs {
			log.Printf("piccolo-serve: wal recovered %s@%d at version %d (%d overlay edges)",
				rec.Dataset, rec.Scale, rec.Version, rec.Edges)
		}
	}
	mux := s.routes() // after adm/WAL setup: routes wires the gate and breaker watches
	if s.adm != nil {
		s.adm.start()
	}

	// Explicit listener so the bound address is known (and logged) before
	// traffic: ":0" deployments — tests, the crash-recovery smoke — learn
	// their port from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("piccolo-serve: listen: %v", err)
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	log.Printf("piccolo-serve: listening on %s (%d workers, pprof %v, wal %q)",
		ln.Addr(), s.runner.Workers(), *pprofOn, *walDir)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("piccolo-serve: serve: %v", err)
	case sig := <-sigCh:
		// Graceful drain: stop accepting, finish in-flight requests within
		// the drain budget, then flush the WAL so every acknowledged update
		// is durable before exit.
		log.Printf("piccolo-serve: %v: draining (up to %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("piccolo-serve: drain incomplete: %v", err)
		}
		if s.adm != nil {
			s.adm.close()
		}
		if err := s.runner.CloseWAL(); err != nil {
			log.Fatalf("piccolo-serve: wal close: %v", err)
		}
		log.Printf("piccolo-serve: shut down")
	}
}
