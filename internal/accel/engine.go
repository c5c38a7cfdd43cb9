package accel

import (
	"fmt"
	"math"
	"math/bits"

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
	cfg Config
	g   *graph.CSR
	k   algorithms.Kernel

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

	// The iteration's active sources with edges, ascending, and per source
	// its row cursor: cur[i] is the first edge of frontier[i]'s row not yet
	// walked, next[i] that edge's destination (MaxUint32 once the row is
	// used up), so that skipping a source is a sequential read.
	frontier []uint32
	cur      []uint64
	next     []uint32

	res Result
}

// NewEngine wires an engine onto a memory system. The DRAM system must be
// fresh (its stats become part of the result).
func NewEngine(cfg Config, g *graph.CSR, k algorithms.Kernel, mem *dram.System, q *sim.Queue) (*Engine, error) {
	cfg.Defaults()
	e := &Engine{cfg: cfg, g: g, k: k}
	if err := e.mp.init(cfg, mem, q); err != nil {
		return nil, err
	}
	e.onStreamDone = e.streamDone
	e.res.System = cfg.System
	return e, nil
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
	e.prop, e.active = e.k.Init(e.g.V, src)
	e.prevProp = make([]uint64, e.g.V)
	e.vtemp = make([]uint64, e.g.V)
	e.touched = make([]uint64, (uint64(e.g.V)+63)/64)
	e.nextActive = make([]bool, e.g.V)
	e.frontier = make([]uint32, 0, e.g.V)
	e.cur = make([]uint64, 0, e.g.V)
	e.next = make([]uint32, 0, e.g.V)
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
// (Algorithm 1 with tiling). Tile k owns the destinations
// [k·w, min((k+1)·w, V)) (graph tiling per GridGraph [107]); width 0 or
// ≥ V is one tile, and V = 0 none.
func (e *Engine) runIteration() {
	copy(e.prevProp, e.prop)
	g := e.g
	e.frontier, e.cur, e.next = e.frontier[:0], e.cur[:0], e.next[:0]
	var activeCount uint64
	for u, a := range e.active {
		if !a {
			continue
		}
		activeCount++
		if lo := g.RowPtr[u]; lo < g.RowPtr[u+1] {
			e.frontier = append(e.frontier, uint32(u))
			e.cur = append(e.cur, lo)
			e.next = append(e.next, g.Col[lo])
		}
	}
	nextActive := e.nextActive
	clear(nextActive)
	prMoved := false
	width := e.cfg.TileWidth
	if width == 0 || width > g.V {
		width = g.V
	}
	for dlo := uint32(0); dlo < g.V; {
		dhi := dlo + min(width, g.V-dlo)
		if e.mp.cch != nil {
			// Piccolo-cache's way partitioning follows the tile's Vtemp
			// range (§V-B).
			e.mp.cch.Partition(VtempBase+8*uint64(dlo), VtempBase+8*uint64(dhi))
		}
		// Row-index repetition (§II-B): "the row indices separately exist
		// for each tile, increasing the row index cost again by t times" —
		// the prefetcher reads every active vertex's row-pointer entry in
		// every tile to discover whether it has edges there. This is the
		// cost that makes perfect tiling expensive on sparse graphs.
		if !e.cfg.EdgeCentric {
			e.topoConsume(8 * activeCount)
		}
		e.edgePhase(dhi)
		prMoved = e.applyPhase(dlo, dhi, nextActive) || prMoved
		e.mp.drainCollection()
		dlo = dhi
	}
	if e.k.Descriptor().AllActive {
		for v := range nextActive {
			nextActive[v] = prMoved
		}
	}
	e.active, e.nextActive = nextActive, e.active
}

// edgePhase streams the tile's active sources and processes their edges,
// marking each destination in the touched bitmap. A CSR row ascends by
// destination (graph.CSR.Validate) and the tiles are walked in ascending
// order, so a source's edges into the tile ending at dhi are the run of its
// row from its cursor up to the first destination ≥ dhi: the frontier walk
// visits exactly the tile's sources, in ascending order, each with its
// edges in row order, and moves each cursor past its run.
func (e *Engine) edgePhase(dhi uint32) {
	edgeBytes := uint64(4) // CSR column index
	if e.cfg.EdgeCentric {
		edgeBytes = 8 // (src, dst, weight) edge record
	}
	k, vtemp, touched := e.k, e.vtemp, e.touched
	col, ws := e.g.Col, e.g.Weight
	lastSrcLine := uint64(1<<64 - 1)
	for i, u := range e.frontier {
		if e.next[i] >= dhi {
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
		j, end := e.cur[i], e.g.RowPtr[u+1]
		start := j
		for ; j < end && col[j] < dhi; j++ {
			v := col[j]
			e.topoConsume(edgeBytes)
			contrib := k.Process(ws[j], pu, deg)
			touched[v>>6] |= 1 << (v & 63)
			vtemp[v] = k.Reduce(vtemp[v], contrib)
			e.vtempAccess(v)
			e.chargeSlot()
		}
		e.res.EdgesProcessed += j - start
		e.cur[i] = j
		if j < end {
			e.next[i] = col[j]
		} else {
			e.next[i] = math.MaxUint32
		}
	}
}

// applyPhase merges Vtemp into Vprop for the tile [dlo, dhi) (Algorithm 1
// lines 6-10) in ascending vertex order, resetting each applied Vtemp entry
// and zeroing the tile's words of the touched bitmap. PR applies everywhere, and
// Graphicionado's updater scans the whole tile regardless of algorithm;
// the rest apply the touched vertices only. It reports whether any
// property moved (PR-style global activation).
func (e *Engine) applyPhase(dlo, dhi uint32, nextActive []bool) bool {
	k, prop, vtemp := e.k, e.prop, e.vtemp
	allActive := k.Descriptor().AllActive
	whole := allActive || e.cfg.System == Graphicionado
	identity := k.Identity()
	moved := false
	lastReadLine, lastWriteLine := ^uint64(0), ^uint64(0)
	first, last := dlo>>6, (dhi-1)>>6 // a tile is never empty
	for w := first; w <= last; w++ {
		word := e.touched[w]
		e.touched[w] = 0
		if whole {
			// The word's tile vertices: [max(dlo, 64w), min(dhi, 64w+64)).
			word = ^uint64(0)
			if w == first {
				word <<= dlo & 63
			}
			if w == last {
				word &= ^uint64(0) >> (63 - (dhi-1)&63)
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
