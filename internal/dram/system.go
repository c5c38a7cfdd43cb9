package dram

import (
	"fmt"

	"piccolo/internal/sim"
)

// System is the event-driven memory controller plus device timing model.
// Requests are submitted at the current simulation time; completion
// callbacks fire on the shared event queue. Scheduling is FR-FCFS per bank
// (row hits first within a lookahead window), open-row policy.
type System struct {
	Cfg   Config
	Stats Stats

	q        *sim.Queue
	m        *addrMap
	channels []*channel
	banks    []*bank // every bank, indexed by addrMap.bankIndex
	pending  int
	free     []*Request // completed NewRequest requests awaiting reuse
}

// Event opcodes. Bank and rank service are scheduled on the System; a bus
// reservation that ends in a completion, and the completion itself, are
// scheduled on the Request they belong to. Every request costs the same
// events, in the same order, as the controller has always scheduled: the
// queue breaks same-cycle ties by scheduling order, so fusing two of them
// (say, completing a read from inside its bus reservation) would reorder
// same-cycle work and change the simulated statistics.
const (
	evServeBank  uint32 = iota // A = channel<<32 | rank, B = bank
	evServeNMP                 // A = channel<<32 | rank
	evReserveBus               // A = ready cycle, B = channel<<32 | bursts<<1 | write
	evComplete                 // A = completion cycle
)

// HandleEvent dispatches the events scheduled on the controller; it is
// exported only to satisfy sim.Handler.
func (s *System) HandleEvent(ev sim.Event) {
	switch ev.Op {
	case evServeBank:
		s.serveBank(int(ev.A>>32), int(uint32(ev.A)), int(ev.B))
	case evServeNMP:
		s.serveNMP(int(ev.A>>32), int(uint32(ev.A)))
	case evReserveBus:
		s.runBusReservation(ev, nil)
	}
}

// HandleEvent dispatches the events scheduled on a submitted request; it is
// exported only to satisfy sim.Handler.
func (req *Request) HandleEvent(ev sim.Event) {
	s := req.sys
	switch ev.Op {
	case evReserveBus:
		s.runBusReservation(ev, req)
	case evComplete:
		s.pending--
		if req.OnComplete != nil {
			req.OnComplete(req, ev.A)
		}
		if req.pooled {
			*req = Request{ItemAddrs: req.ItemAddrs[:0], pooled: true}
			s.free = append(s.free, req)
		}
	}
}

func packRank(ch, rk int) uint64 { return uint64(ch)<<32 | uint64(rk) }

type channel struct {
	busFreeAt    uint64
	lastBusWrite bool
	ranks        []*rank
}

type rank struct {
	banks     []*bank
	lastActAt uint64
	actRing   [4]uint64 // tFAW sliding window of ACT issue times
	actIdx    int

	// NMP buffer-chip state: the rank-internal bus between the buffer chip
	// and the DRAM devices.
	internalBusFreeAt uint64
	nmpQueue          reqFIFO
	nmpScheduled      bool
}

type bank struct {
	openRow    int64 // -1 when closed
	colReadyAt uint64
	preReadyAt uint64
	actReadyAt uint64
	busyUntil  uint64 // FIM internal operation occupancy
	queue      reqFIFO
	scheduled  bool
}

// New constructs a memory system on the given event queue.
func New(cfg Config, q *sim.Queue) (*System, error) {
	c := cfg
	if err := c.finalize(); err != nil {
		return nil, err
	}
	s := &System{Cfg: c, q: q, m: newAddrMap(&c)}
	s.channels = make([]*channel, c.Channels)
	s.banks = make([]*bank, c.Channels*c.Ranks*c.Banks)
	for i := range s.banks {
		s.banks[i] = &bank{openRow: -1}
	}
	for i := range s.channels {
		ch := &channel{ranks: make([]*rank, c.Ranks)}
		for r := range ch.ranks {
			first := s.m.bankIndex(i, r, 0)
			ch.ranks[r] = &rank{banks: s.banks[first : first+c.Banks : first+c.Banks]}
		}
		s.channels[i] = ch
	}
	return s, nil
}

// MustNew is New for configurations known to be valid (presets).
func MustNew(cfg Config, q *sim.Queue) *System {
	s, err := New(cfg, q)
	if err != nil {
		panic(err)
	}
	return s
}

// Decode exposes the address mapping.
func (s *System) Decode(addr uint64) Loc { return s.m.decode(addr) }

// RowKeyOf returns the FIM collection key of addr: its (channel, rank,
// bank, row) packed into one word.
func (s *System) RowKeyOf(addr uint64) uint64 { return s.m.rowKeyOf(addr) }

// RankKeyOf returns the NMP collection key of addr: its (channel, rank).
func (s *System) RankKeyOf(addr uint64) uint64 { return s.m.rankKeyOf(addr) }

// ByteInRow returns the offset of addr inside its row's footprint — the
// value written to the FIM offset buffer.
func (s *System) ByteInRow(addr uint64) uint64 { return s.m.decode(addr).ByteInRow }

// ItemsPerOp returns how many 8B words one FIM operation moves.
func (s *System) ItemsPerOp() int { return s.Cfg.FIMItems }

// Pending returns the number of submitted-but-incomplete requests.
func (s *System) Pending() int { return s.pending }

// NewRequest returns a zeroed request from the system's free-list (which
// lives and dies with the System, so nothing outlasts a run). The system
// takes it back after its completion — see Request for the ownership rule.
// Its ItemAddrs keeps the capacity of earlier uses: fill it with
// append(req.ItemAddrs[:0], ...).
func (s *System) NewRequest() *Request {
	if n := len(s.free); n > 0 {
		req := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return req
	}
	return &Request{pooled: true}
}

// Submit enqueues a request at the current simulation time. The request's
// OnComplete callback (if any) fires when its data transfer finishes.
func (s *System) Submit(req *Request) {
	req.sys = s
	req.loc = s.m.decode(req.Addr)
	s.pending++
	switch req.Kind {
	case ReqNMPGather, ReqNMPScatter:
		if len(req.ItemAddrs) == 0 {
			panic(fmt.Sprintf("dram: %v submitted without item addresses", req.Kind))
		}
		rk := s.channels[req.loc.Channel].ranks[req.loc.Rank]
		rk.nmpQueue.push(req)
		if !rk.nmpScheduled {
			rk.nmpScheduled = true
			s.q.ScheduleEvent(s.q.Now(), s, sim.Event{Op: evServeNMP, A: packRank(req.loc.Channel, req.loc.Rank)})
		}
	default:
		if (req.Kind == ReqGather || req.Kind == ReqScatter) && (req.Items < 1 || req.Items > s.Cfg.FIMItems) {
			panic(fmt.Sprintf("dram: %v with %d items (max %d)", req.Kind, req.Items, s.Cfg.FIMItems))
		}
		b := s.bankOf(req.loc)
		b.queue.push(req)
		if !b.scheduled {
			b.scheduled = true
			s.q.ScheduleEvent(s.q.Now(), s, sim.Event{Op: evServeBank, A: packRank(req.loc.Channel, req.loc.Rank), B: uint64(req.loc.Bank)})
		}
	}
}

func (s *System) bankOf(l Loc) *bank {
	return s.banks[s.m.bankIndex(l.Channel, l.Rank, l.Bank)]
}

// complete schedules the request's completion (callback, then recycling).
func (s *System) complete(req *Request, at uint64) {
	s.q.ScheduleEvent(at, req, sim.Event{Op: evComplete, A: at})
}

// frfcfsLookahead bounds the row-hit scan of a bank queue.
const frfcfsLookahead = 16

// pick removes and returns the next request: the first row hit within the
// lookahead window, else the oldest request.
func (b *bank) pick() *Request {
	limit := min(b.queue.len(), frfcfsLookahead)
	idx := 0
	if b.openRow >= 0 {
		for i := 0; i < limit; i++ {
			if b.queue.at(i).loc.Row == uint64(b.openRow) {
				idx = i
				break
			}
		}
	}
	return b.queue.remove(idx)
}

// serveBank processes one request from the bank queue and re-arms itself
// while work remains.
func (s *System) serveBank(chIdx, rkIdx, bIdx int) {
	ch := s.channels[chIdx]
	rk := ch.ranks[rkIdx]
	b := rk.banks[bIdx]
	b.scheduled = false
	if b.queue.len() == 0 {
		return
	}
	req := b.pick()
	var next uint64
	switch req.Kind {
	case ReqRead, ReqWrite:
		next = s.execBurst(rk, b, req)
	case ReqGather, ReqScatter:
		next = s.execFIM(rk, b, req)
	case ReqPIMUpdate:
		next = s.execPIMUpdate(ch, rk, b, req)
	default:
		panic("dram: unexpected request kind in bank queue")
	}
	if b.queue.len() > 0 {
		b.scheduled = true
		s.q.ScheduleEvent(next, s, sim.Event{Op: evServeBank, A: packRank(chIdx, rkIdx), B: uint64(bIdx)})
	}
}

// openRowFor brings the bank's row buffer to the requested row, returning
// the earliest time a column command may issue. now is the scheduling time.
func (s *System) openRowFor(rk *rank, b *bank, row uint64, now uint64) uint64 {
	t := &s.Cfg.Timing
	if b.openRow == int64(row) {
		return max(now, b.colReadyAt, b.busyUntil)
	}
	actAt := max(now, b.actReadyAt)
	if b.openRow >= 0 {
		preAt := max(now, b.preReadyAt, b.busyUntil)
		actAt = max(actAt, preAt+t.TRP)
		s.Stats.NPRE++
	}
	// Rank-level activation constraints: tRRD to the previous ACT and tFAW
	// across the last four.
	actAt = max(actAt, rk.lastActAt+t.TRRD, rk.actRing[rk.actIdx]+t.TFAW)
	rk.lastActAt = actAt
	rk.actRing[rk.actIdx] = actAt
	rk.actIdx = (rk.actIdx + 1) % len(rk.actRing)
	s.Stats.NACT++

	b.openRow = int64(row)
	b.colReadyAt = actAt + t.TRCD
	b.preReadyAt = actAt + t.TRAS
	b.actReadyAt = actAt + t.TRAS + t.TRP
	return max(b.colReadyAt, b.busyUntil)
}

// busTransfer reserves the channel data bus for one burst in the given
// direction no earlier than ready, returning the transfer start time.
func (s *System) busTransfer(ch *channel, ready uint64, write bool) uint64 {
	t := &s.Cfg.Timing
	free := ch.busFreeAt
	if ch.lastBusWrite != write {
		free += t.TTRN
	}
	start := max(ready, free)
	ch.busFreeAt = start + t.TBL
	ch.lastBusWrite = write
	s.Stats.BusBusy += t.TBL
	return start
}

// reserveBus schedules n back-to-back burst transfers no earlier than
// ready, reserving the channel data bus *at its use time* — deferring the
// reservation keeps the single busFreeAt cursor chronological, so a
// latency gap inside one operation (e.g. the FIM virtual-row window) never
// blocks other banks' earlier bus slots. done (optional) is the request
// that completes at the end of the last transfer.
func (s *System) reserveBus(chIdx int, ready uint64, write bool, n int, done *Request) {
	ev := sim.Event{Op: evReserveBus, A: ready, B: uint64(chIdx)<<32 | uint64(n)<<1}
	if write {
		ev.B |= 1
	}
	if done != nil {
		s.q.ScheduleEvent(ready, done, ev)
	} else {
		s.q.ScheduleEvent(ready, s, ev)
	}
}

// runBusReservation is reserveBus's event body.
func (s *System) runBusReservation(ev sim.Event, done *Request) {
	ch, write, n := s.channels[ev.B>>32], ev.B&1 != 0, int(uint32(ev.B)>>1)
	r := ev.A
	var end uint64
	for i := 0; i < n; i++ {
		start := s.busTransfer(ch, r, write)
		end = start + s.Cfg.Timing.TBL
		r = end
	}
	if done != nil {
		s.complete(done, end)
	}
}

// execBurst performs a conventional read or write burst and returns the
// bank's next selection time. Bank-state updates use the no-bus-stall
// column time; bus contention only delays the data (and completion).
func (s *System) execBurst(rk *rank, b *bank, req *Request) uint64 {
	t := &s.Cfg.Timing
	now := s.q.Now()
	colAt := s.openRowFor(rk, b, req.loc.Row, now)
	b.colReadyAt = colAt + t.TCCD
	if req.Kind == ReqRead {
		b.preReadyAt = max(b.preReadyAt, colAt+t.TRTP)
		s.Stats.NRD++
		s.Stats.addRead(req.Class, s.Cfg.BurstBytes)
		s.reserveBus(req.loc.Channel, colAt+t.TCL, false, 1, req)
	} else {
		b.preReadyAt = max(b.preReadyAt, colAt+t.TCWL+t.TBL+t.TWR)
		s.Stats.NWR++
		s.Stats.addWrite(req.Class, s.Cfg.BurstBytes)
		s.reserveBus(req.loc.Channel, colAt+t.TCWL, true, 1, req)
	}
	return b.colReadyAt
}

// execFIM performs a Piccolo gather or scatter (§IV-B, §VI): offset bursts
// over the data bus, Items in-bank column operations confined to the open
// row (hidden under the virtual-row tWR+tRP+tRCD window), and data-buffer
// transfers. The bank array is busy during the internal operation but the
// channel bus is not — that asymmetry is the source of Piccolo's bandwidth
// win.
func (s *System) execFIM(rk *rank, b *bank, req *Request) uint64 {
	t := &s.Cfg.Timing
	cfg := &s.Cfg
	now := s.q.Now()
	colAt := s.openRowFor(rk, b, req.loc.Row, now)

	// Offset-buffer write bursts (ClassControl traffic). Timing below uses
	// the contention-free burst end; the actual bus slots are reserved at
	// use time.
	nOff := cfg.fimOffsetBursts
	offDone := colAt + t.TCWL + uint64(nOff)*t.TBL
	s.Stats.NWR += uint64(nOff)
	for i := 0; i < nOff; i++ {
		s.Stats.addWrite(ClassControl, cfg.BurstBytes)
	}
	s.reserveBus(req.loc.Channel, colAt+t.TCWL, true, nOff, nil)

	items := uint64(req.Items)
	switch req.Kind {
	case ReqGather:
		// Internal in-bank column reads start when the offsets land.
		internalDone := offDone + items*t.TCCD
		b.busyUntil = internalDone
		s.Stats.InternalColOps += items
		s.Stats.InternalReads += items
		s.Stats.InternalBytes += items * 8
		s.Stats.InternalBusy += items * t.TCCD
		// The data-buffer read is addressed at the *other* virtual row, so
		// the controller emits PRE+ACT that the internal controller turns
		// into no-ops; the gap tWR+tRP+tRCD conceals the internal reads.
		window := offDone + t.TWR + t.TRP + t.TRCD
		readColAt := max(window, internalDone)
		s.Stats.NRD += uint64(cfg.FIMDataBursts)
		for i := 0; i < cfg.FIMDataBursts; i++ {
			s.Stats.addRead(req.Class, cfg.BurstBytes)
		}
		s.reserveBus(req.loc.Channel, readColAt+t.TCL, false, cfg.FIMDataBursts, req)
		b.colReadyAt = max(b.colReadyAt, readColAt+t.TCCD)
		s.Stats.NGather++
		return max(b.colReadyAt, b.busyUntil)
	default: // ReqScatter
		// Data-buffer write bursts follow the offsets.
		dataDone := offDone + uint64(cfg.FIMDataBursts)*t.TBL
		s.Stats.NWR += uint64(cfg.FIMDataBursts)
		for i := 0; i < cfg.FIMDataBursts; i++ {
			s.Stats.addWrite(req.Class, cfg.BurstBytes)
		}
		s.reserveBus(req.loc.Channel, offDone, true, cfg.FIMDataBursts, req)
		internalDone := dataDone + items*t.TCCD
		b.busyUntil = internalDone
		b.preReadyAt = max(b.preReadyAt, internalDone+t.TWR)
		s.Stats.InternalColOps += items
		s.Stats.InternalWrites += items
		s.Stats.InternalBytes += items * 8
		s.Stats.InternalBusy += items * t.TCCD
		s.Stats.NScatter++
		return max(b.colReadyAt, b.busyUntil)
	}
}

// execPIMUpdate performs one near-bank read-modify-write. Following
// GraphPIM's host interface, every offloaded atomic is its own request
// packet: one bus transaction per update (the command/address/operand
// cannot share a burst with unrelated updates).
func (s *System) execPIMUpdate(ch *channel, rk *rank, b *bank, req *Request) uint64 {
	t := &s.Cfg.Timing
	now := s.q.Now()
	s.Stats.NPIMUpdate++
	dataAt := s.busTransfer(ch, now, true)
	arrival := dataAt + t.TBL
	s.Stats.addWrite(req.Class, s.Cfg.BurstBytes)
	colAt := s.openRowFor(rk, b, req.loc.Row, arrival)
	// Read-modify-write occupies two column slots at the bank.
	done := colAt + 2*t.TCCD
	b.colReadyAt = done
	b.preReadyAt = max(b.preReadyAt, done+t.TWR)
	s.Stats.InternalColOps += 2
	s.Stats.InternalReads++
	s.Stats.InternalWrites++
	s.Stats.InternalBytes += 16
	s.Stats.InternalBusy += 2 * t.TCCD
	s.complete(req, done)
	return b.colReadyAt
}

// serveNMP processes one rank-level near-memory gather/scatter: a
// descriptor burst to the buffer chip, per-item full-burst accesses on the
// rank-internal bus (using the real banks' timing state), and a packed
// result burst back to the host for gathers.
func (s *System) serveNMP(chIdx, rkIdx int) {
	ch := s.channels[chIdx]
	rk := ch.ranks[rkIdx]
	rk.nmpScheduled = false
	if rk.nmpQueue.len() == 0 {
		return
	}
	req := rk.nmpQueue.remove(0)

	t := &s.Cfg.Timing
	now := s.q.Now()

	// Descriptor transfer (offsets / offsets+data) on the host bus.
	descAt := s.busTransfer(ch, now, true)
	descDone := descAt + t.TBL
	s.Stats.NWR++
	s.Stats.addWrite(ClassControl, s.Cfg.BurstBytes)
	if req.Kind == ReqNMPScatter {
		dataAt := s.busTransfer(ch, descDone, true)
		descDone = dataAt + t.TBL
		s.Stats.NWR++
		s.Stats.addWrite(req.Class, s.Cfg.BurstBytes)
	}

	// Buffer-chip accesses: full bursts on the rank-internal bus. Banks
	// obey normal timing; the host channel bus stays free.
	write := req.Kind == ReqNMPScatter
	var allDone uint64
	for _, ia := range req.ItemAddrs {
		loc := s.m.decode(ia)
		ib := rk.banks[loc.Bank]
		colAt := s.openRowFor(rk, ib, loc.Row, descDone)
		var ready uint64
		if write {
			ready = colAt + t.TCWL
		} else {
			ready = colAt + t.TCL
		}
		start := max(ready, rk.internalBusFreeAt)
		rk.internalBusFreeAt = start + t.TBL
		itemDone := start + t.TBL
		ib.colReadyAt = max(ib.colReadyAt, colAt+t.TCCD)
		if write {
			ib.preReadyAt = max(ib.preReadyAt, itemDone+t.TWR)
			s.Stats.NWR++
			s.Stats.InternalWrites++
		} else {
			ib.preReadyAt = max(ib.preReadyAt, colAt+t.TRTP)
			s.Stats.NRD++
			s.Stats.InternalReads++
		}
		s.Stats.InternalColOps++
		s.Stats.InternalBytes += s.Cfg.BurstBytes
		s.Stats.InternalBusy += t.TBL
		if itemDone > allDone {
			allDone = itemDone
		}
	}

	if req.Kind == ReqNMPGather {
		s.Stats.NRD++
		s.Stats.addRead(req.Class, s.Cfg.BurstBytes)
		s.Stats.NNMPGather++
		// The packed result burst crosses the host bus once the buffer
		// chip has collected every item; reserve that slot at use time.
		s.reserveBus(chIdx, allDone, false, 1, req)
	} else {
		s.Stats.NNMPScatter++
		s.complete(req, allDone)
	}

	if rk.nmpQueue.len() > 0 {
		rk.nmpScheduled = true
		s.q.ScheduleEvent(max(descDone, s.q.Now()), s, sim.Event{Op: evServeNMP, A: packRank(chIdx, rkIdx)})
	}
}
