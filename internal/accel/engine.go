package accel

import (
	"fmt"
	"math/bits"
	"sync"

	"piccolo/internal/algorithms"
	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/graph"
	"piccolo/internal/mshr"
	"piccolo/internal/sim"
)

// Address-space layout of the simulated accelerator (byte addresses).
// Vtemp sits at the bottom so destination-vertex v lives at 8v — the
// random-access region the paper's techniques target. The regions are far
// apart so caches and row keys never alias across streams.
const (
	VtempBase = uint64(0)
	vpropBase = uint64(1) << 33
	TopoBase  = uint64(2) << 33
)

// Result is the outcome of one simulated run.
type Result struct {
	System     System
	Cycles     uint64
	Iterations int
	Prop       []uint64

	EdgesProcessed uint64
	SrcVisits      uint64
	ApplyVisits    uint64
	TopoBytes      uint64

	Mem   dram.Stats
	Cache cache.Stats
	Coll  mshr.Stats

	// Debug counters (stall-loop iterations by cause).
	DbgWindowStalls, DbgStreamStalls, DbgDrainForced uint64

	// Simulator accounting, read from the event queue when the run ends:
	// events fired, and how many of them were scheduled past the queue's
	// timing wheel and so went through its overflow heap.
	// Host-side cost figures, not simulated statistics.
	Events, FarEvents uint64
}

// Engine simulates one system running one kernel on one graph
// (functional values + event-driven timing).
type Engine struct {
	cfg       Config
	g         *graph.CSR
	tileWidth uint32
	til       *graph.Tiling // borrowed from tilings for the length of Run
	k         algorithms.Kernel

	// The random-access path; its clock is the engine's.
	mp MemPath

	// Timing state.
	slotCount int // edge slots consumed since last cycle advance
	streamOut int // outstanding prefetch-stream fetches

	// Stream cursors.
	topoCursor   uint64 // topology bytes fetched (res.TopoBytes: consumed)
	pimApplyLine uint64

	dbgStreamStalls uint64 // stream-depth stall-loop iterations

	// Functional state. prevProp is the iteration-start snapshot the edge
	// phase reads (double-buffered Jacobi semantics, matching the
	// reference executor: contributions never observe same-iteration
	// applies).
	prop     []uint64
	prevProp []uint64
	vtemp    []uint64
	active   []bool

	// One bit per destination with contributions in the current tile. A
	// tile's apply walks and zeroes its own words; a word shared with the
	// next tile holds none of that tile's bits yet, since its edge phase
	// has not run.
	touched []uint64

	// The stream-fetch completion, bound once so that submitting a
	// request creates no closure.
	onStreamDone func(*dram.Request, uint64)

	nextActive []bool // the frontier being built; swapped with active

	res Result
}

// NewEngine wires an engine onto a memory system. The DRAM system must be
// fresh (its stats become part of the result).
func NewEngine(cfg Config, g *graph.CSR, k algorithms.Kernel, mem *dram.System, q *sim.Queue) (*Engine, error) {
	cfg.Defaults()
	width := cfg.TileWidth
	if cfg.System.UsesSPM() {
		// Scratchpads require perfect tiling: the tile must fit on chip.
		perfect := uint32(cfg.OnChipBytes / 8)
		if width == 0 || width > perfect {
			width = perfect
		}
	}
	e := &Engine{
		cfg:       cfg,
		g:         g,
		tileWidth: width,
		k:         k,
	}
	if err := e.mp.init(cfg, mem, q); err != nil {
		return nil, err
	}
	e.onStreamDone = e.streamDone
	e.res.System = cfg.System
	return e, nil
}

// tilingStash lends finished runs' tilings to later runs, which rebuild them
// in place (graph.Tiling.Rebuild) instead of copying the edge list into
// fresh memory: a sweep is hundreds of runs over a handful of graphs, and
// the copies were most of what it allocated. What it retains follows the
// load: never more spares than one per run still going plus one, so each
// worker of a sweep finds the tiling it returned a moment ago, and a
// process that has gone idle keeps one tiling — not one per graph or width,
// and not what its busiest moment needed.
type tilingStash struct {
	mu      sync.Mutex
	spare   []*graph.Tiling
	running int
}

var tilings tilingStash

func (s *tilingStash) get() *graph.Tiling {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running++
	n := len(s.spare)
	if n == 0 {
		return new(graph.Tiling)
	}
	t := s.spare[n-1]
	s.spare[n-1] = nil
	s.spare = s.spare[:n-1]
	return t
}

func (s *tilingStash) put(t *graph.Tiling) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.spare = append(s.spare, t)
	if keep := s.running + 1; len(s.spare) > keep {
		clear(s.spare[keep:])
		s.spare = s.spare[:keep]
	}
}

// CacheName is the Name of the engine's cache; "" on a system without one.
func (e *Engine) CacheName() string {
	if e.mp.cch == nil {
		return ""
	}
	return e.mp.cch.Name()
}

// Run simulates until convergence or MaxIters and returns the result.
func (e *Engine) Run(src uint32) (*Result, error) {
	e.til = tilings.get()
	defer func() {
		tilings.put(e.til)
		e.til = nil
	}()
	e.til.Rebuild(e.g, e.tileWidth)

	e.prop, e.active = e.k.Init(e.g.V, src)
	e.prevProp = make([]uint64, e.g.V)
	e.vtemp = make([]uint64, e.g.V)
	e.touched = make([]uint64, (uint64(e.g.V)+63)/64)
	e.nextActive = make([]bool, e.g.V)
	identity := e.k.Identity()
	for i := range e.vtemp {
		e.vtemp[i] = identity
	}

	for iter := 0; iter < e.cfg.MaxIters; iter++ {
		anyActive := false
		for _, a := range e.active {
			if a {
				anyActive = true
				break
			}
		}
		if !anyActive {
			break
		}
		e.res.Iterations++
		e.runIteration()
	}
	e.res.Cycles = e.mp.Finish()
	if e.mp.outstanding != 0 || e.streamOut != 0 {
		panic(fmt.Sprintf("accel: %d outstanding, %d stream fetches after drain", e.mp.outstanding, e.streamOut))
	}
	e.res.Prop = e.prop
	if e.mp.cch != nil {
		e.res.Cache = *e.mp.cch.Stats()
	}
	if e.mp.coll != nil {
		e.res.Coll = e.mp.coll.Stats
	}
	e.res.Mem = e.mp.mem.Stats
	e.res.DbgWindowStalls, e.res.DbgStreamStalls, e.res.DbgDrainForced = e.mp.windowStalls, e.dbgStreamStalls, e.mp.drainForced
	e.res.Events, e.res.FarEvents = e.mp.q.Fired(), e.mp.q.Far()
	return &e.res, nil
}

// runIteration processes every tile: edge phase then apply phase
// (Algorithm 1 with tiling).
func (e *Engine) runIteration() {
	copy(e.prevProp, e.prop)
	var activeCount uint64
	for _, a := range e.active {
		if a {
			activeCount++
		}
	}
	nextActive := e.nextActive
	clear(nextActive)
	prMoved := false
	for ti := range e.til.Tiles {
		tile := &e.til.Tiles[ti]
		if e.mp.cch != nil {
			// Piccolo-cache's way partitioning follows the tile's Vtemp
			// range (§V-B).
			e.mp.cch.Partition(VtempBase+8*uint64(tile.DstLo), VtempBase+8*uint64(tile.DstHi))
		}
		// Row-index repetition (§II-B): "the row indices separately exist
		// for each tile, increasing the row index cost again by t times" —
		// the prefetcher reads every active vertex's row-pointer entry in
		// every tile to discover whether it has edges there. This is the
		// cost that makes perfect tiling expensive on sparse graphs.
		if !e.cfg.EdgeCentric {
			e.topoConsume(8 * activeCount)
		}
		e.edgePhase(tile)
		prMoved = e.applyPhase(tile, nextActive) || prMoved
		e.mp.drainCollection()
	}
	if e.k.Descriptor().AllActive {
		for v := range nextActive {
			nextActive[v] = prMoved
		}
	}
	e.active, e.nextActive = nextActive, e.active
}

// edgePhase streams the tile's active sources and processes their edges,
// marking each destination in the touched bitmap.
func (e *Engine) edgePhase(tile *graph.Tile) {
	edgeBytes := uint64(4) // CSR column index
	if e.cfg.EdgeCentric {
		edgeBytes = 8 // (src, dst, weight) edge record
	}
	k, vtemp, touched := e.k, e.vtemp, e.touched
	lastSrcLine := uint64(1<<64 - 1)
	for i, u := range tile.Src {
		if !e.active[u] {
			continue
		}
		e.res.SrcVisits++
		if e.cfg.EdgeCentric {
			// Edge-centric engines read source properties through the
			// cache at random (§VII-H).
			e.mp.Access(vpropBase+8*uint64(u), false, dram.ClassSrcProp)
		} else {
			line := (vpropBase + 8*uint64(u)) &^ 63
			if line != lastSrcLine {
				lastSrcLine = line
				e.stream(dram.ReqRead, line, dram.ClassSrcProp)
			}
		}
		e.chargeSlot()
		deg, pu := e.g.OutDeg(u), e.prevProp[u]
		lo, hi := tile.EdgeStart[i], tile.EdgeStart[i+1]
		e.res.EdgesProcessed += uint64(hi - lo)
		ws := tile.W[lo:hi]
		for j, v := range tile.Dst[lo:hi] {
			e.topoConsume(edgeBytes)
			contrib := k.Process(ws[j], pu, deg)
			touched[v>>6] |= 1 << (v & 63)
			vtemp[v] = k.Reduce(vtemp[v], contrib)
			e.vtempAccess(v)
			e.chargeSlot()
		}
	}
}

// applyPhase merges Vtemp into Vprop for the tile (Algorithm 1 lines 6-10)
// in ascending vertex order, resetting each applied Vtemp entry and zeroing
// the tile's words of the touched bitmap. PR applies everywhere, and
// Graphicionado's updater scans the whole tile regardless of algorithm;
// the rest apply the touched vertices only. It reports whether any
// property moved (PR-style global activation).
func (e *Engine) applyPhase(tile *graph.Tile, nextActive []bool) bool {
	k, prop, vtemp := e.k, e.prop, e.vtemp
	allActive := k.Descriptor().AllActive
	whole := allActive || e.cfg.System == Graphicionado
	identity := k.Identity()
	moved := false
	lastReadLine, lastWriteLine := ^uint64(0), ^uint64(0)
	first, last := tile.DstLo>>6, (tile.DstHi-1)>>6 // a tile is never empty
	for w := first; w <= last; w++ {
		word := e.touched[w]
		e.touched[w] = 0
		if whole {
			// The word's tile vertices: [max(DstLo, 64w), min(DstHi, 64w+64)).
			word = ^uint64(0)
			if w == first {
				word <<= tile.DstLo & 63
			}
			if w == last {
				word &= ^uint64(0) >> (63 - (tile.DstHi-1)&63)
			}
		}
		for ; word != 0; word &= word - 1 {
			v := w<<6 | uint32(bits.TrailingZeros64(word))
			newProp := k.Apply(prop[v], vtemp[v])
			changed := !k.Converged(prop[v], newProp)
			// Timing: Vtemp read + Vprop read, conditional Vprop write.
			e.applyVtempRead(v)
			line := (vpropBase + 8*uint64(v)) &^ 63
			if line != lastReadLine {
				lastReadLine = line
				e.stream(dram.ReqRead, line, dram.ClassApply)
			}
			if changed {
				if line != lastWriteLine {
					lastWriteLine = line
					e.stream(dram.ReqWrite, line, dram.ClassApply)
				}
				if allActive {
					moved = true
				} else {
					nextActive[v] = true
				}
			}
			prop[v] = newProp
			vtemp[v] = identity
			e.chargeSlot()
			e.res.ApplyVisits++
		}
	}
	return moved
}

// chargeSlot accounts one PE/SIMD slot of compute; a full batch advances
// the engine clock one cycle and drains due memory events.
func (e *Engine) chargeSlot() {
	e.slotCount++
	if e.slotCount >= lanes {
		e.slotCount = 0
		e.mp.Tick()
	}
}
