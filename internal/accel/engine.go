package accel

import (
	"fmt"
	"slices"
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
	VpropBase = uint64(1) << 33
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
	// events fired, and how many of them were scheduled sim.Horizon or
	// more cycles ahead and so went through the queue's overflow heap.
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

	q    *sim.Queue
	mem  *dram.System
	cch  cache.Cache
	coll *mshr.Collection
	conv *mshr.Conventional

	// Timing state.
	t           uint64 // engine-local cycle
	slotCount   int    // edge slots consumed since last cycle advance
	outstanding int    // random accesses waiting on memory
	streamOut   int    // outstanding prefetch-stream fetches
	lineBursts  int    // device bursts per 64B line transfer

	// Stream cursors.
	topoCursor   uint64
	topoPending  uint64
	pimApplyLine uint64

	// debug instrumentation
	dbgWindowStalls, dbgStreamStalls, dbgDrainForced uint64

	// Functional state. prevProp is the iteration-start snapshot the edge
	// phase reads (double-buffered Jacobi semantics, matching the
	// reference executor: contributions never observe same-iteration
	// applies).
	prop     []uint64
	prevProp []uint64
	vtemp    []uint64
	active   []bool
	updated  []bool

	// Request completions, bound once so that submitting a request
	// creates no closure (access.go).
	onStreamDone, onAccessesDone, onFillDone func(*dram.Request, uint64)

	// Buffers reused across tiles and iterations.
	nextActive []bool   // the frontier being built; swapped with active
	touched    []uint32 // edgePhase's destination list
	applyList  []uint32 // applyPhase's full-tile vertex list
	tileTags   []uint64 // partitionForTile's tag list

	res Result
}

// NewEngine wires an engine onto a memory system. The DRAM system must be
// fresh (its stats become part of the result).
func NewEngine(cfg Config, g *graph.CSR, k algorithms.Kernel, mem *dram.System, q *sim.Queue) (*Engine, error) {
	cfg.Defaults()
	cch, coll, conv, err := cfg.buildMemoryPath(mem)
	if err != nil {
		return nil, err
	}
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
		q:         q,
		mem:       mem,
		cch:       cch,
		coll:      coll,
		conv:      conv,
	}
	e.onStreamDone, e.onAccessesDone, e.onFillDone = e.streamDone, e.accessesDone, e.fillDone
	// Two on 32B-burst memories (LPDDR4, GDDR5, HBM), else one.
	e.lineBursts = max(int(64/mem.Cfg.BurstBytes), 1)
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
	t.G = nil // a spare must not keep its last graph alive
	s.spare = append(s.spare, t)
	if keep := s.running + 1; len(s.spare) > keep {
		clear(s.spare[keep:])
		s.spare = s.spare[:keep]
	}
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
	e.updated = make([]bool, e.g.V)
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
		if err := e.runIteration(); err != nil {
			return nil, err
		}
	}
	e.finish()
	e.res.Prop = e.prop
	e.res.Cycles = e.t
	if e.cch != nil {
		e.res.Cache = *e.cch.Stats()
	}
	if e.coll != nil {
		e.res.Coll = e.coll.Stats
	}
	e.res.Mem = e.mem.Stats
	e.res.DbgWindowStalls, e.res.DbgStreamStalls, e.res.DbgDrainForced = e.dbgWindowStalls, e.dbgStreamStalls, e.dbgDrainForced
	e.res.Events, e.res.FarEvents = e.q.Fired(), e.q.Far()
	return &e.res, nil
}

// runIteration processes every tile: edge phase then apply phase
// (Algorithm 1 with tiling).
func (e *Engine) runIteration() error {
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
		e.partitionForTile(tile)
		// Row-index repetition (§II-B): "the row indices separately exist
		// for each tile, increasing the row index cost again by t times" —
		// the prefetcher reads every active vertex's row-pointer entry in
		// every tile to discover whether it has edges there. This is the
		// cost that makes perfect tiling expensive on sparse graphs.
		if !e.cfg.EdgeCentric {
			e.topoConsume(8 * activeCount)
		}
		touched := e.edgePhase(tile)
		moved, err := e.applyPhase(tile, touched, nextActive)
		if err != nil {
			return err
		}
		prMoved = prMoved || moved
		e.drainCollection()
	}
	if e.k.Descriptor().AllActive {
		for v := range nextActive {
			nextActive[v] = prMoved
		}
	}
	e.active, e.nextActive = nextActive, e.active
	return nil
}

// edgePhase streams the tile's active sources and processes their edges,
// returning the touched destination list (ascending).
func (e *Engine) edgePhase(tile *graph.Tile) []uint32 {
	touched := e.touched[:0]
	lastSrcLine := uint64(1<<64 - 1)
	for i, u := range tile.Src {
		if !e.active[u] {
			continue
		}
		e.res.SrcVisits++
		if e.cfg.EdgeCentric {
			// Edge-centric engines read source properties through the
			// cache at random (§VII-H).
			e.randomAccess(VpropBase+8*uint64(u), false, dram.ClassSrcProp)
		} else {
			line := (VpropBase + 8*uint64(u)) &^ 63
			if line != lastSrcLine {
				lastSrcLine = line
				e.streamRead(line, dram.ClassSrcProp)
			}
		}
		e.chargeSlot()
		deg := e.g.OutDeg(u)
		for j := tile.EdgeStart[i]; j < tile.EdgeStart[i+1]; j++ {
			v := tile.Dst[j]
			if e.cfg.EdgeCentric {
				e.topoConsume(8) // (src, dst, weight) edge record
			} else {
				e.topoConsume(4) // CSR column index
			}
			contrib := e.k.Process(tile.W[j], e.prevProp[u], deg)
			if !e.updated[v] {
				e.updated[v] = true
				touched = append(touched, v)
			}
			e.vtemp[v] = e.k.Reduce(e.vtemp[v], contrib)
			e.res.EdgesProcessed++
			e.vtempAccess(v)
			e.chargeSlot()
		}
	}
	slices.Sort(touched)
	e.touched = touched
	return touched
}

// applyPhase merges Vtemp into Vprop for the tile (Algorithm 1 lines 6-10)
// and resets the touched Vtemp entries. It reports whether any property
// moved (PR-style global activation).
func (e *Engine) applyPhase(tile *graph.Tile, touched []uint32, nextActive []bool) (bool, error) {
	var vertices []uint32
	switch {
	case e.k.Descriptor().AllActive || e.cfg.System == Graphicionado:
		// PR applies everywhere; Graphicionado's updater additionally
		// scans the whole tile regardless of algorithm.
		vertices = e.applyList[:0]
		for v := tile.DstLo; v < tile.DstHi; v++ {
			vertices = append(vertices, v)
		}
		e.applyList = vertices
	default:
		vertices = touched
	}

	moved := false
	lastReadLine, lastWriteLine := ^uint64(0), ^uint64(0)
	applyValue := func(v uint32) bool {
		newProp := e.k.Apply(e.prop[v], e.vtemp[v])
		changed := !e.k.Converged(e.prop[v], newProp)
		// Timing: Vtemp read + Vprop read, conditional Vprop write.
		e.applyVtempRead(v)
		if line := (VpropBase + 8*uint64(v)) &^ 63; line != lastReadLine {
			lastReadLine = line
			e.streamRead(line, dram.ClassApply)
		}
		if changed {
			if line := (VpropBase + 8*uint64(v)) &^ 63; line != lastWriteLine {
				lastWriteLine = line
				e.streamWrite(line, dram.ClassApply)
			}
		}
		e.prop[v] = newProp
		e.chargeSlot()
		e.res.ApplyVisits++
		return changed
	}
	if e.k.Descriptor().AllActive {
		for _, v := range vertices {
			if applyValue(v) {
				moved = true
			}
		}
	} else {
		for _, v := range vertices {
			if applyValue(v) {
				nextActive[v] = true
			}
		}
	}
	// Reset the touched Vtemp entries to the identity.
	identity := e.k.Identity()
	for _, v := range touched {
		e.vtemp[v] = identity
		e.updated[v] = false
	}
	return moved, nil
}

// partitionForTile configures Piccolo-cache way partitioning from the
// tile's Vtemp tag range (§V-B: "we can pre-identify the list of tags that
// correspond to each tile range").
func (e *Engine) partitionForTile(tile *graph.Tile) {
	type tagger interface {
		TagOf(uint64) uint64
		TagSpanBytes() uint64
	}
	tg, ok := e.cch.(tagger)
	if !ok {
		return
	}
	lo := VtempBase + 8*uint64(tile.DstLo)
	hi := VtempBase + 8*uint64(tile.DstHi)
	span := tg.TagSpanBytes()
	tags := e.tileTags[:0]
	for a := lo &^ (span - 1); a < hi; a += span {
		tags = append(tags, tg.TagOf(a))
	}
	e.tileTags = tags
	e.cch.Partition(tags)
}

// finish drains all in-flight state and advances time to completion.
func (e *Engine) finish() {
	e.drainCollection()
	if e.cch != nil {
		for _, ev := range e.cch.Flush() {
			if ev.Dirty {
				e.writeback(ev.Addr, ev.Bytes)
			}
		}
		e.drainCollection()
	}
	for e.q.RunNext() {
	}
	if e.q.Now() > e.t {
		e.t = e.q.Now()
	}
	if e.outstanding != 0 || e.streamOut != 0 {
		panic(fmt.Sprintf("accel: %d outstanding, %d stream fetches after drain", e.outstanding, e.streamOut))
	}
}

// chargeSlot accounts one PE/SIMD slot of compute; a full batch advances
// the engine clock one cycle and drains due memory events.
func (e *Engine) chargeSlot() {
	e.slotCount++
	if e.slotCount >= e.cfg.PEs*e.cfg.SIMD {
		e.slotCount = 0
		e.t++
		e.q.RunUntil(e.t)
	}
}

// advance makes forward progress while the engine is stalled: run the next
// memory event, or force partial collection flushes when nothing is in
// flight.
func (e *Engine) advance() {
	if e.q.RunNext() {
		if e.q.Now() > e.t {
			e.t = e.q.Now()
		}
		return
	}
	if e.coll != nil {
		if fl := e.coll.Drain(); len(fl) > 0 {
			e.dbgDrainForced++
			e.submitFlushes(fl)
			return
		}
	}
	panic(fmt.Sprintf("accel: deadlock: outstanding=%d streams=%d memPending=%d",
		e.outstanding, e.streamOut, e.mem.Pending()))
}

func (e *Engine) drainCollection() {
	if e.coll != nil {
		e.submitFlushes(e.coll.Drain())
	}
}
