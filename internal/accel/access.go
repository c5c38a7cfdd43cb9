package accel

import "piccolo/internal/dram"

// topoConsume charges topology-stream bytes; every full burst becomes a
// prefetch read (ClassTopology). It runs once per edge, so the reads sit
// out of line and this inlines.
func (e *Engine) topoConsume(bytes uint64) {
	e.res.TopoBytes += bytes
	if e.res.TopoBytes-e.topoCursor >= 64 {
		e.topoFetch()
	}
}

// topoFetch reads every full burst consumed and not yet fetched. The
// cursor walks a dedicated region so topology traffic exercises realistic
// row behaviour.
//
//go:noinline
func (e *Engine) topoFetch() {
	for e.res.TopoBytes-e.topoCursor >= 64 {
		e.stream(dram.ReqRead, TopoBase|(e.topoCursor&(1<<32-1)), dram.ClassTopology)
		e.topoCursor += 64
	}
}

// stream issues one prefetch-stream 64B line read or write (apply-phase
// property updates), bounded by StreamDepth outstanding fetches (depth 1 =
// no prefetching, Fig. 20b). Only reads count their stall iterations.
func (e *Engine) stream(kind dram.ReqKind, addr uint64, class dram.Class) {
	for i := 0; i < e.mp.lineBursts; i++ {
		for e.streamOut >= e.cfg.StreamDepth {
			if kind == dram.ReqRead {
				e.dbgStreamStalls++
			}
			e.mp.advance()
		}
		e.streamOut++
		e.mp.q.RunUntil(e.mp.t)
		e.mp.submit(kind, addr+uint64(i)*e.mp.mem.Cfg.BurstBytes, class, e.onStreamDone, 0)
	}
}

// streamDone retires a prefetch-stream fetch.
func (e *Engine) streamDone(*dram.Request, uint64) { e.streamOut-- }

// vtempAccess is the per-edge random read-modify-write of Vtemp[v]
// (Algorithm 1 line 5) — the access pattern the whole paper is about.
func (e *Engine) vtempAccess(v uint32) {
	addr := VtempBase + 8*uint64(v)
	switch e.cfg.System {
	case Graphicionado, GraphDynsSPM:
		// Perfect tiling keeps the tile's Vtemp in the scratchpad.
		return
	case PIM:
		// The reduce executes near-bank; one update command per edge.
		e.mp.stallWindow()
		e.mp.outstanding++
		e.mp.q.RunUntil(e.mp.t)
		e.mp.submit(dram.ReqPIMUpdate, addr, dram.ClassVTemp, e.mp.onAccessesDone, 1)
	default:
		e.mp.Access(addr, true, dram.ClassVTemp)
	}
}

// applyVtempRead models the apply phase's Vtemp read for vertex v.
func (e *Engine) applyVtempRead(v uint32) {
	addr := VtempBase + 8*uint64(v)
	switch e.cfg.System {
	case Graphicionado, GraphDynsSPM:
		return // scratchpad-resident
	case PIM:
		// Apply-phase Vtemp reads stream from memory in sorted order.
		line := addr &^ 63
		if line != e.pimApplyLine {
			e.pimApplyLine = line
			e.stream(dram.ReqRead, line, dram.ClassVTemp)
		}
	default:
		e.mp.Access(addr, false, dram.ClassVTemp)
	}
}
