package accel

import (
	"fmt"

	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/mshr"
	"piccolo/internal/sim"
)

// MemPath is the updater's random-access memory path (§V-C, Fig. 7): an 8B
// access probes the on-chip cache; a miss becomes a 64B line fill through
// the conventional MSHR, or an 8B sector collected by row (Piccolo) or rank
// (NMP) into the collection-extended MSHR, and leaves as DRAM bursts or
// gather/scatter operations. It is the only code that drives cache → MSHR →
// dram.System for random accesses: the graph engine holds one, and the
// §VIII-A OLAP scan (internal/olap) builds one.
type MemPath struct {
	q    *sim.Queue
	mem  *dram.System
	cch  cache.Cache
	coll *mshr.Collection
	conv *mshr.Conventional
	nmp  bool // collect by rank for NMP's buffer chip, else by DRAM row

	t           uint64 // issuing clock
	window      int    // bound on outstanding random accesses
	outstanding int    // random accesses waiting on memory
	lineBursts  int    // device bursts per 64B line transfer

	windowStalls, drainForced uint64 // stall-loop iterations by cause

	// Request completions, bound once so that submitting a request
	// creates no closure.
	onAccessesDone, onFillDone func(*dram.Request, uint64)
}

// NewMemPath builds the cache/MSHR stack cfg's system uses in front of a
// fresh memory system. Access needs a cache, so cfg.System is
// GraphDynsCache, NMP or Piccolo.
func NewMemPath(cfg Config, mem *dram.System, q *sim.Queue) (*MemPath, error) {
	cfg.Defaults()
	m := new(MemPath)
	if err := m.init(cfg, mem, q); err != nil {
		return nil, err
	}
	return m, nil
}

// init builds the path in place: the completions it binds point at m, so
// m must not be copied afterwards.
func (m *MemPath) init(cfg Config, mem *dram.System, q *sim.Queue) error {
	cch, coll, conv, err := cfg.buildMemoryPath(mem)
	if err != nil {
		return err
	}
	*m = MemPath{
		q: q, mem: mem, cch: cch, coll: coll, conv: conv,
		nmp:    cfg.System == NMP,
		window: cfg.Window,
		// Two on 32B-burst memories (LPDDR4, GDDR5, HBM), else one.
		lineBursts: max(int(64/mem.Cfg.BurstBytes), 1),
	}
	m.onAccessesDone, m.onFillDone = m.accessesDone, m.fillDone
	return nil
}

// Tick advances the issuing clock one cycle and runs the memory events due
// by then.
func (m *MemPath) Tick() {
	m.t++
	m.q.RunUntil(m.t)
}

// Access probes the cache for an 8B word and routes misses through the
// configured miss-handling path. res is the cache's own storage, good
// until the next Access: nothing below reaches one (write-backs, fetches
// and the completions they run never touch the cache).
func (m *MemPath) Access(addr uint64, write bool, class dram.Class) {
	res := m.cch.Access(addr, write)
	if res.Hit {
		return // a hit evicts nothing
	}
	for _, ev := range res.Evictions {
		if ev.Dirty {
			m.writeback(ev.Addr, ev.Bytes)
		}
	}
	m.missFetch(res.Fetch.Addr, res.Fetch.Bytes, class)
}

// Finish drains all in-flight state, advances the clock past the last
// memory event and returns it.
func (m *MemPath) Finish() uint64 {
	m.drainCollection()
	if m.cch != nil {
		for _, ev := range m.cch.Flush() {
			if ev.Dirty {
				m.writeback(ev.Addr, ev.Bytes)
			}
		}
		m.drainCollection()
	}
	for m.q.RunNext() {
	}
	m.t = max(m.t, m.q.Now())
	return m.t
}

// submit sends one single-address request built from the memory system's
// free-list. done is a completion bound once (or nil); tag is the value it
// reads back from the request.
func (m *MemPath) submit(kind dram.ReqKind, addr uint64, class dram.Class, done func(*dram.Request, uint64), tag uint64) {
	req := m.mem.NewRequest()
	req.Kind, req.Addr, req.Class = kind, addr, class
	req.OnComplete, req.Tag = done, tag
	m.mem.Submit(req)
}

// accessesDone resumes the Tag random accesses that waited on the request
// (one PIM update, or every access merged into a gather).
func (m *MemPath) accessesDone(req *dram.Request, _ uint64) { m.outstanding -= int(req.Tag) }

// fillDone completes the conventional-MSHR line fill of block Tag.
func (m *MemPath) fillDone(req *dram.Request, _ uint64) { m.outstanding -= m.conv.Complete(req.Tag) }

// missFetch brings fetch data in: 64B fills go through the conventional
// MSHR; 8B fills are collected into gather operations (§V-C).
func (m *MemPath) missFetch(addr, bytes uint64, class dram.Class) {
	m.stallWindow()
	m.q.RunUntil(m.t)
	if bytes != 8 {
		for {
			allocated, merged := m.conv.Register(addr)
			if allocated || merged {
				m.outstanding++
				if allocated {
					// A 64B line fill needs one or two device bursts; the
					// line completes with the last one.
					n := m.lineBursts
					for i := 0; i < n; i++ {
						var done func(*dram.Request, uint64)
						if i == n-1 {
							done = m.onFillDone
						}
						m.submit(dram.ReqRead, addr+uint64(i)*m.mem.Cfg.BurstBytes, class, done, addr)
					}
				}
				return
			}
			m.advance() // MSHR full
		}
	}
	served, flushes := m.coll.ReadMiss(addr, m.collKey(addr))
	if served {
		return // forwarded from pending write-back data (Fig. 7)
	}
	m.outstanding++
	m.submitFlushes(flushes)
}

// writeback sends dirty evicted data toward memory: 64B lines as burst
// writes, 8B sectors into the scatter side of the collection MSHR.
func (m *MemPath) writeback(addr, bytes uint64) {
	m.q.RunUntil(m.t)
	if bytes != 8 {
		for i := 0; i < m.lineBursts; i++ {
			m.submit(dram.ReqWrite, addr+uint64(i)*m.mem.Cfg.BurstBytes, dram.ClassWriteback, nil, 0)
		}
		return
	}
	m.submitFlushes(m.coll.Writeback(addr, m.collKey(addr)))
}

// collKey is the key the collection MSHR groups addr under.
func (m *MemPath) collKey(addr uint64) uint64 {
	if m.nmp {
		return m.mem.RankKeyOf(addr)
	}
	return m.mem.RowKeyOf(addr)
}

// submitFlushes turns collection-MSHR dispatches into memory operations.
// flushes is a view of the collection's scratch storage, so the item
// addresses an NMP request needs later are copied into the request.
func (m *MemPath) submitFlushes(flushes []mshr.Flush) {
	for i := range flushes {
		fl := &flushes[i]
		m.q.RunUntil(m.t)
		req := m.mem.NewRequest()
		req.Addr = fl.Addrs[0]
		switch {
		case fl.Scatter && m.nmp:
			req.Kind = dram.ReqNMPScatter
		case fl.Scatter:
			req.Kind = dram.ReqScatter
		case m.nmp:
			req.Kind = dram.ReqNMPGather
		default:
			req.Kind = dram.ReqGather
		}
		if m.nmp {
			req.ItemAddrs = append(req.ItemAddrs[:0], fl.Addrs...)
		} else {
			req.Items = fl.Items()
		}
		if fl.Scatter {
			req.Class = dram.ClassWriteback
		} else {
			req.Class = dram.ClassVTemp
			req.OnComplete, req.Tag = m.onAccessesDone, uint64(fl.TotalSubs())
		}
		m.mem.Submit(req)
	}
}

// stallWindow blocks progress while the update window is full.
func (m *MemPath) stallWindow() {
	for m.outstanding >= m.window {
		m.windowStalls++
		m.advance()
	}
}

// advance makes forward progress while the issuer is stalled: run the next
// memory event, or force partial collection flushes when nothing is in
// flight.
func (m *MemPath) advance() {
	if m.q.RunNext() {
		m.t = max(m.t, m.q.Now())
		return
	}
	if m.coll != nil {
		if fl := m.coll.Drain(); len(fl) > 0 {
			m.drainForced++
			m.submitFlushes(fl)
			return
		}
	}
	panic(fmt.Sprintf("accel: deadlock: outstanding=%d memPending=%d", m.outstanding, m.mem.Pending()))
}

func (m *MemPath) drainCollection() {
	if m.coll != nil {
		m.submitFlushes(m.coll.Drain())
	}
}
