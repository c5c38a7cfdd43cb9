// Package piccolo is the public API of the Piccolo reproduction — a
// simulation library for the HPCA 2025 paper "Piccolo: Large-Scale Graph
// Processing with Fine-Grained In-Memory Scatter-Gather" (Shin et al.,
// arXiv:2503.05116).
//
// The library simulates, functionally and with event-driven timing, a graph
// processing accelerator attached to a DRAM substrate that supports
// Piccolo's in-memory random scatter-gather (Piccolo-FIM), the Piccolo
// cache + collection-extended MSHR (Piccolo-cache), and the five baseline
// systems the paper compares against. See DESIGN.md for the system
// inventory (§2), the dataset-proxy scaling and its distortions (§1) and
// the experiment map (§4), and bench/README.md for the repository
// benchmark.
//
// Quick start:
//
//	g := piccolo.MustDataset("SW", piccolo.ScaleSmall)
//	res, err := piccolo.Run(piccolo.Config{
//		System: piccolo.SystemPiccolo,
//		Kernel: "bfs",
//		Scale:  piccolo.ScaleSmall,
//		Src:    -1,
//	}, g)
//	fmt.Println(res.Cycles, res.Energy.Total())
package piccolo

import (
	"context"
	"fmt"

	"piccolo/internal/accel"
	"piccolo/internal/algorithms"
	"piccolo/internal/core"
	"piccolo/internal/dram"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/runner"
	"piccolo/internal/stream"
)

// System identifies one of the six simulated accelerator systems.
type System = accel.System

// The evaluated systems (Fig. 10).
const (
	SystemGraphicionado  = accel.Graphicionado
	SystemGraphDynsSPM   = accel.GraphDynsSPM
	SystemGraphDynsCache = accel.GraphDynsCache
	SystemNMP            = accel.NMP
	SystemPIM            = accel.PIM
	SystemPiccolo        = accel.Piccolo
)

// Systems returns all six systems in the paper's presentation order.
func Systems() []System { return accel.Systems() }

// Scale selects dataset-proxy and on-chip capacity scale (DESIGN.md §1).
type Scale = graph.Scale

// Available scales.
const (
	ScaleTiny   = graph.ScaleTiny
	ScaleSmall  = graph.ScaleSmall
	ScaleMedium = graph.ScaleMedium
)

// Config selects a system, kernel and the knobs the paper sweeps; zero
// values mean "paper default". See internal/core.Config for field docs.
type Config = core.Config

// Result bundles cycles, functional output, memory/cache statistics,
// bandwidths and the Fig. 14 energy breakdown.
type Result = core.Result

// Graph is a weighted directed graph in CSR form.
type Graph = graph.CSR

// MemoryConfig describes a DRAM configuration (device type, channels,
// ranks, timing, FIM parameters).
type MemoryConfig = dram.Config

// Memory presets (Fig. 15).
func DDR4(width int) MemoryConfig { return dram.DDR4(width) }
func LPDDR4() MemoryConfig        { return dram.LPDDR4() }
func GDDR5() MemoryConfig         { return dram.GDDR5() }
func HBM() MemoryConfig           { return dram.HBM() }

// Enhanced applies the §VIII-B design tweaks to a memory configuration.
func Enhanced(cfg MemoryConfig) MemoryConfig { return dram.Enhanced(cfg) }

// KernelCapability describes one registered kernel: its name, descriptor
// version and the capability traits clients can rely on (monotone,
// all-active, source role, repair strategy). piccolo-serve
// returns the same list in GET /healthz and /stats.
type KernelCapability = algorithms.Capability

// Kernels enumerates the registered kernels with their capabilities, in
// registration order. Kernel names for Config.Kernel and Query.Kernel come
// from the Name field; KernelNames returns just those.
func Kernels() []KernelCapability { return algorithms.Capabilities() }

// KernelNames returns the registered kernel names in registration order —
// the strings accepted by Config.Kernel, Query.Kernel and NewKernel.
func KernelNames() []string { return algorithms.Names() }

// Run simulates the configured system executing the kernel on g.
func Run(cfg Config, g *Graph) (*Result, error) { return core.Run(cfg, g) }

// Job is one declarative sweep cell: a dataset name plus a Config. Jobs
// with equal content hashes (Job.Key) are the same simulation and are
// executed once per Runner.
type Job = runner.Job

// Runner executes jobs across a worker pool over a thread-safe
// content-addressed result cache (DESIGN.md §7). Share one Runner across
// sweeps to share its cache.
type Runner = runner.Runner

// RunnerStats reports a runner's cache hit/miss counters.
type RunnerStats = runner.Stats

// NewRunner returns a runner executing at most workers simulations
// concurrently; workers <= 0 selects runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner { return runner.New(workers) }

// Sweep runs every job on a fresh default-width runner and returns the
// results in submission order. For repeated or overlapping sweeps, build
// one Runner with NewRunner and call its Sweep method so results are
// cached across calls (its context-aware signature also supports
// per-request deadlines; this helper runs unbounded).
func Sweep(jobs []Job) ([]*Result, error) {
	return runner.New(0).Sweep(context.Background(), jobs)
}

// Validate re-executes the kernel with the simulation-free reference and
// checks the simulated vertex properties bit-for-bit.
func Validate(cfg Config, g *Graph, res *Result) error { return core.Validate(cfg, g, res) }

// Dataset builds one of the paper's Table II dataset proxies by name
// (UU, TW, SW, FS, PP, WS26, WS27, KN25..KN28).
func Dataset(name string, sc Scale) (*Graph, error) {
	d, err := graph.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Build(sc), nil
}

// MustDataset is Dataset for known-good names.
func MustDataset(name string, sc Scale) *Graph {
	g, err := Dataset(name, sc)
	if err != nil {
		panic(fmt.Sprintf("piccolo: %v", err))
	}
	return g
}

// Generate exposes the synthetic generators for custom workloads.
func GenerateKronecker(name string, scale, edgeFactor int, seed int64) *Graph {
	return graph.Kronecker(name, scale, edgeFactor, seed)
}

// GenerateUniform generates an Erdős–Rényi-style random graph.
func GenerateUniform(name string, v uint32, avgDeg float64, seed int64) *Graph {
	return graph.Uniform(name, v, avgDeg, seed)
}

// GenerateWattsStrogatz generates a small-world graph.
func GenerateWattsStrogatz(name string, v uint32, k int, beta float64, seed int64) *Graph {
	return graph.WattsStrogatz(name, v, k, beta, seed)
}

// LoadGraph reads a segment file (WriteSegmentFile and cmd/graphgen write
// one) fully into an in-RAM graph. Use OpenSegment to serve it from disk
// instead.
func LoadGraph(path string) (*Graph, error) {
	s, err := graph.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Load(), nil
}

// GraphStore is read-only graph storage the engine can execute against
// directly: the in-RAM CSR (GraphAsStore) or an mmap'd on-disk segment
// (OpenSegment). See DESIGN.md §14.
type GraphStore = graph.GraphStore

// Segment is an opened on-disk compressed graph (PICSEG01): delta-varint
// adjacency in cache-sized blocks behind an mmap'd fixed-width row index,
// decoded on demand instead of materialized. Close releases the mapping.
type Segment = graph.Segment

// OpenSegment opens and fully validates a segment file written by
// WriteSegmentFile (or cmd/graphgen), mmap'ing it when the platform allows
// and falling back to a heap copy otherwise.
func OpenSegment(path string) (*Segment, error) { return graph.OpenSegment(path) }

// WriteSegmentFile writes g as a compressed segment at path, the one
// on-disk graph format. The graphgen command writes its output this way.
func WriteSegmentFile(g *Graph, path string) error { return g.WriteSegmentFile(path) }

// GraphAsStore adapts an in-RAM graph to the GraphStore interface with
// zero copies.
func GraphAsStore(g *Graph) GraphStore { return graph.AsStore(g) }

// HighestDegreeVertex returns the smallest vertex id of maximum out-degree
// — the default traversal source everywhere a negative src is given. For a
// 0-vertex graph there is no such vertex and ok is false.
func HighestDegreeVertex(g *Graph) (v uint32, ok bool) { return graph.HighestDegreeVertex(g) }

// Reference runs the simulation-free executor and returns the converged
// vertex properties and iteration count — handy for validating custom
// workloads.
func Reference(kernel string, g *Graph, src uint32, maxIters int) ([]uint64, int, error) {
	k, err := algorithms.New(kernel)
	if err != nil {
		return nil, 0, err
	}
	ref := algorithms.RunReference(g, k, src, maxIters)
	return ref.Prop, ref.Iterations, nil
}

// Engine is the sharded parallel execution engine (DESIGN.md §9): a
// frontier-based executor whose results are bit-identical to Reference at
// any worker count. Build one with NewEngine to amortize its sharding over
// repeated runs on the same graph. An Engine is a read-only index: Run and
// RunCtx are safe to call concurrently, each run working in its own pooled
// scratch state.
type Engine = engine.Engine

// EngineRunOptions are the per-run settings Engine.RunCtx accepts: a phase
// width (fixed, or re-read at every superstep through a callback) and a
// span recorder. None of them can change a result bit.
type EngineRunOptions = engine.RunOptions

// EngineConfig has one knob, Workers, the default phase width; the zero
// value selects GOMAXPROCS. The engine picks each superstep's traversal
// direction itself (DESIGN.md §12). Results do not depend on the knob.
type EngineConfig = engine.Config

// KernelResult is a functional execution result: converged vertex
// properties (8-byte words; PageRank stores float64 bits), the iteration
// count and the processed-edge count.
type KernelResult = algorithms.ReferenceResult

// VertexScore is one ranked vertex in a TopK result.
type VertexScore = engine.VertexScore

// Query is a declarative functional-execution job served by Runner.RunQueryInfo
// through the runner's content-addressed query cache (and by piccolo-serve
// as POST /query).
type Query = runner.Query

// Kernel is one vertex-centric algorithm (Process/Reduce/Apply of the
// paper's Algorithm 1), accepted by Engine.Run. Every kernel carries a
// Descriptor declaring its capabilities (DESIGN.md §15).
type Kernel = algorithms.Kernel

// KernelDescriptor is a kernel's capability declaration: convergence
// discipline, source role, repair strategy, top-k ranking. All engine
// layers dispatch on it; none special-case kernel names.
type KernelDescriptor = algorithms.Descriptor

// SourceRole says what a kernel does with the src argument.
type SourceRole = algorithms.SourceRole

// The source roles a descriptor can declare.
const (
	SourceIgnored = algorithms.SourceIgnored // kernel takes no source (pr, cc, lp)
	SourceVertex  = algorithms.SourceVertex  // src is a start vertex (bfs, sssp, sswp, ppr)
	SourceParam   = algorithms.SourceParam   // src is a kernel parameter (kcore's k)
)

// RepairStrategy says how a kernel's results are maintained under
// streaming edge insertions.
type RepairStrategy = algorithms.RepairStrategy

// The repair strategies a descriptor can declare.
const (
	RepairFullRecompute    = algorithms.RepairFullRecompute    // non-monotone: rerun (lp)
	RepairMonotoneWorklist = algorithms.RepairMonotoneWorklist // exact incremental repair (bfs, cc, sssp, sswp)
	RepairResidual         = algorithms.RepairResidual         // delta-PR residual pushes (pr, ppr)
	RepairSupportGrowth    = algorithms.RepairSupportGrowth    // exact insertion-only membership repair (kcore)
)

// ErrUnknownKernel is the sentinel every unknown-kernel-name error wraps;
// errors.Is(err, ErrUnknownKernel) matches it across Run, NewKernel,
// queries and TopK.
var ErrUnknownKernel = algorithms.ErrUnknownKernel

// UnknownKernelError is the concrete unknown-kernel error, carrying the
// rejected name and the supported list (errors.As to recover it).
type UnknownKernelError = algorithms.UnknownKernelError

// RegisterKernel adds a kernel to the process-wide registry, making it
// resolvable by name everywhere a kernel name is accepted. It panics on a
// duplicate name or an invalid descriptor; call it from init, like the
// built-in kernels do.
func RegisterKernel(k Kernel) { algorithms.Register(k) }

// NewKernel resolves a kernel by registered name (see KernelNames) — the
// way to hand Engine.Run a kernel. Run and Query take kernel names and
// resolve them the same way.
func NewKernel(name string) (Kernel, error) { return algorithms.New(name) }

// NewEngine builds a parallel engine for g.
func NewEngine(g *Graph, cfg EngineConfig) *Engine { return engine.New(g, cfg) }

// NewStoreEngine builds a parallel engine over any GraphStore — an in-RAM
// CSR or an opened segment — with results bit-identical to NewEngine on the
// equivalent graph at every worker count.
func NewStoreEngine(s GraphStore, cfg EngineConfig) *Engine { return engine.NewFromStore(s, cfg) }

// TopK ranks a kernel's converged properties with the semantics the
// kernel's descriptor declares (highest rank for pr/ppr, closest for
// bfs/sssp, widest for sswp, largest groups for cc/lp, membership for
// kcore).
func TopK(kernel string, prop []uint64, k int) ([]VertexScore, error) {
	return engine.TopK(kernel, prop, k)
}

// DynamicEngine is the streaming-update executor (DESIGN.md §10): a
// versioned mutable overlay over an immutable base graph plus incremental
// result repair. ApplyUpdates inserts edge batches; QueryCtx returns vertex
// properties bit-identical to Reference on the materialized post-update
// graph, served by incremental repair when cheap and a full engine run when
// not (per the kernel descriptor's repair strategy); ApproxPageRank and
// ApproxPersonalizedPageRank are the delta-PageRank residual-propagation
// paths. Safe for concurrent use.
type DynamicEngine = stream.DynamicEngine

// EdgeUpdate is one streamed edge insertion (weight in 1..255; multi-edges
// and self-loops are legal, vertices must already exist).
type EdgeUpdate = stream.EdgeUpdate

// StreamConfig has one knob, Workers, the phase width of full recomputes;
// the zero value selects GOMAXPROCS. The repair budget (a quarter of the
// edges) and compaction point (a quarter delta growth) are fixed.
type StreamConfig = stream.Config

// StreamStats counts a DynamicEngine's updates, repairs, full recomputes
// and compactions.
type StreamStats = stream.Stats

// StreamQueryInfo reports how a DynamicEngine query was served ("cached",
// "incremental" or "full") and at which graph version.
type StreamQueryInfo = stream.QueryInfo

// NewDynamicEngine builds a streaming executor over base. The base graph
// is shared read-only and must not be mutated afterwards.
func NewDynamicEngine(base *Graph, cfg StreamConfig) *DynamicEngine {
	return stream.New(base, cfg)
}
