package accel

import (
	"piccolo/internal/dram"
	"piccolo/internal/mshr"
)

// topoConsume charges topology-stream bytes; every full burst becomes a
// prefetch read (ClassTopology). The cursor walks a dedicated region so
// topology traffic exercises realistic row behaviour.
func (e *Engine) topoConsume(bytes uint64) {
	e.res.TopoBytes += bytes
	e.topoPending += bytes
	for e.topoPending >= 64 {
		e.topoPending -= 64
		e.streamRead(TopoBase|(e.topoCursor&(1<<32-1)), dram.ClassTopology)
		e.topoCursor += 64
	}
}

// streamRead issues one prefetch-stream 64B line read, bounded by
// StreamDepth outstanding fetches (depth 1 = no prefetching, Fig. 20b).
func (e *Engine) streamRead(addr uint64, class dram.Class) {
	for i := 0; i < e.lineBursts; i++ {
		for e.streamOut >= e.cfg.StreamDepth {
			e.dbgStreamStalls++
			e.advance()
		}
		e.streamOut++
		e.q.RunUntil(e.t)
		e.submit(dram.ReqRead, addr+uint64(i)*e.mem.Cfg.BurstBytes, class, e.onStreamDone, 0)
	}
}

// streamWrite issues one 64B line write on the stream path (apply-phase
// property updates), same depth bound.
func (e *Engine) streamWrite(addr uint64, class dram.Class) {
	for i := 0; i < e.lineBursts; i++ {
		for e.streamOut >= e.cfg.StreamDepth {
			e.advance()
		}
		e.streamOut++
		e.q.RunUntil(e.t)
		e.submit(dram.ReqWrite, addr+uint64(i)*e.mem.Cfg.BurstBytes, class, e.onStreamDone, 0)
	}
}

// submit sends one single-address request built from the memory system's
// free-list. done is one of the completions bound once in NewEngine (or
// nil); tag is the value it reads back from the request.
func (e *Engine) submit(kind dram.ReqKind, addr uint64, class dram.Class, done func(*dram.Request, uint64), tag uint64) {
	req := e.mem.NewRequest()
	req.Kind, req.Addr, req.Class = kind, addr, class
	req.OnComplete, req.Tag = done, tag
	e.mem.Submit(req)
}

// The engine's three request completions. Each reads what a per-request
// closure would have captured from Request.Tag.

// streamDone retires a prefetch-stream fetch.
func (e *Engine) streamDone(*dram.Request, uint64) { e.streamOut-- }

// accessesDone resumes the Tag random accesses that waited on the request
// (one PIM update, or every access merged into a gather).
func (e *Engine) accessesDone(req *dram.Request, _ uint64) { e.outstanding -= int(req.Tag) }

// fillDone completes the conventional-MSHR line fill of block Tag.
func (e *Engine) fillDone(req *dram.Request, _ uint64) { e.outstanding -= e.conv.Complete(req.Tag) }

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
		e.stallWindow()
		e.outstanding++
		e.q.RunUntil(e.t)
		e.submit(dram.ReqPIMUpdate, addr, dram.ClassVTemp, e.onAccessesDone, 1)
	default:
		e.randomAccess(addr, true, dram.ClassVTemp)
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
			e.streamRead(line, dram.ClassVTemp)
		}
	default:
		e.randomAccess(addr, false, dram.ClassVTemp)
	}
}

// randomAccess probes the cache for an 8B word and routes misses through
// the configured miss-handling path. res is the cache's own storage, good
// until the next Access: nothing below reaches one (write-backs, fetches
// and the completions they run never touch the cache).
func (e *Engine) randomAccess(addr uint64, write bool, class dram.Class) {
	res := e.cch.Access(addr, write)
	if res.Hit {
		return // a hit evicts nothing
	}
	for _, ev := range res.Evictions {
		if ev.Dirty {
			e.writeback(ev.Addr, ev.Bytes)
		}
	}
	for _, f := range res.Fetches {
		e.missFetch(f.Addr, f.Bytes, class)
	}
}

// missFetch brings fetch data in: 64B fills go through the conventional
// MSHR; 8B fills are collected by row (Piccolo) or rank (NMP) into
// gather operations (§V-C).
func (e *Engine) missFetch(addr, bytes uint64, class dram.Class) {
	e.stallWindow()
	e.q.RunUntil(e.t)
	if bytes != 8 {
		for {
			allocated, merged := e.conv.Register(addr)
			if allocated || merged {
				e.outstanding++
				if allocated {
					// A 64B line fill needs one or two device bursts; the
					// line completes with the last one.
					n := e.lineBursts
					for i := 0; i < n; i++ {
						var done func(*dram.Request, uint64)
						if i == n-1 {
							done = e.onFillDone
						}
						e.submit(dram.ReqRead, addr+uint64(i)*e.mem.Cfg.BurstBytes, class, done, addr)
					}
				}
				return
			}
			e.advance() // MSHR full
		}
	}
	served, flushes := e.coll.ReadMiss(addr, e.collKey(addr))
	if served {
		return // forwarded from pending write-back data (Fig. 7)
	}
	e.outstanding++
	e.submitFlushes(flushes)
}

// writeback sends dirty evicted data toward memory: 64B lines as burst
// writes, 8B sectors into the scatter side of the collection MSHR.
func (e *Engine) writeback(addr, bytes uint64) {
	e.q.RunUntil(e.t)
	if bytes != 8 {
		for i := 0; i < e.lineBursts; i++ {
			e.submit(dram.ReqWrite, addr+uint64(i)*e.mem.Cfg.BurstBytes, dram.ClassWriteback, nil, 0)
		}
		return
	}
	e.submitFlushes(e.coll.Writeback(addr, e.collKey(addr)))
}

// collKey is the key the collection MSHR groups addr under: its rank for
// NMP, whose buffer chip serves a whole rank, else its DRAM row.
func (e *Engine) collKey(addr uint64) uint64 {
	if e.cfg.System == NMP {
		return e.mem.RankKeyOf(addr)
	}
	return e.mem.RowKeyOf(addr)
}

// submitFlushes turns collection-MSHR dispatches into memory operations.
// flushes is a view of the collection's scratch storage, so the item
// addresses an NMP request needs later are copied into the request.
func (e *Engine) submitFlushes(flushes []mshr.Flush) {
	for i := range flushes {
		fl := &flushes[i]
		e.q.RunUntil(e.t)
		req := e.mem.NewRequest()
		req.Addr = fl.Addrs[0]
		nmp := e.cfg.System == NMP
		switch {
		case fl.Scatter && nmp:
			req.Kind = dram.ReqNMPScatter
		case fl.Scatter:
			req.Kind = dram.ReqScatter
		case nmp:
			req.Kind = dram.ReqNMPGather
		default:
			req.Kind = dram.ReqGather
		}
		if nmp {
			req.ItemAddrs = append(req.ItemAddrs[:0], fl.Addrs...)
		} else {
			req.Items = fl.Items()
		}
		if fl.Scatter {
			req.Class = dram.ClassWriteback
		} else {
			req.Class = dram.ClassVTemp
			req.OnComplete, req.Tag = e.onAccessesDone, uint64(fl.TotalSubs())
		}
		e.mem.Submit(req)
	}
}

// stallWindow blocks engine progress while the update window is full.
func (e *Engine) stallWindow() {
	for e.outstanding >= e.cfg.Window {
		e.dbgWindowStalls++
		e.advance()
	}
}
