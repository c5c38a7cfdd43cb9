// Package sim provides the simulation kernel: a deterministic event queue
// over a global cycle clock. The accelerator engine drives its own local
// time and drains due events (DRAM command completions, buffer flushes)
// before every state-changing access, so components never tick per cycle —
// the whole reproduction is event-driven, which keeps full-figure sweeps
// tractable (DESIGN.md §5).
//
// An event is a typed record — a receiver (Handler) plus an Event{Op, A, B}
// of a small opcode and two integers the receiver decodes — so the steady
// state schedules and fires events without allocating. An event about one
// object (a memory request, say) makes that object its receiver.
// Schedule(at, func()) is the same record with the function as receiver.
//
// Ordering contract: events fire in increasing (at, seq), where at is the
// requested cycle clamped up to the clock at scheduling time and seq counts
// Schedule calls on this queue. seq makes the order total, so same-cycle
// events fire in scheduling order and a run is a pure function of the
// sequence of Schedule calls. A model built on the queue therefore may not
// fuse, drop or reorder its Schedule calls without changing same-cycle
// order downstream — and with it the simulated statistics.
//
// Structure: a timing wheel of Horizon one-cycle buckets holds every event
// due less than Horizon cycles after the clock at scheduling time; the few
// that are further out wait in a 4-ary heap on (at, seq), the overflow.
// Scheduling on the wheel appends to the FIFO of bucket at mod Horizon,
// firing takes the head of the earliest occupied bucket (a two-level
// bitmap finds it), and a pop takes the overflow's top instead when that is
// due no later than the wheel's earliest cycle. Both are O(1); only
// overflow events pay a log-depth sift. The order is (at, seq) exactly:
//
//   - A bucket only ever holds one cycle. Inserts need now ≤ at < now +
//     Horizon and the clock never passes a pending event, so the pending
//     wheel events always lie in one window of Horizon consecutive cycles,
//     which map to distinct buckets. A bucket's FIFO order is therefore
//     the seq order of its cycle.
//   - An overflow event due at cycle T was scheduled while the clock was
//     ≤ T − Horizon, a wheel event due at T while it was > T − Horizon:
//     the clock is monotone, so every overflow event for T has a smaller
//     seq than every wheel event for T, and "overflow wins ties" is seq
//     order too.
//
// Overflow events are never moved into the wheel as the clock approaches
// them: that would append an early-scheduled event behind later-scheduled
// ones of the same cycle, which the second point forbids.
package sim

import "math/bits"

// Handler receives the events scheduled on it.
type Handler interface {
	HandleEvent(ev Event)
}

// Event is the payload delivered to a Handler. The receiver defines what
// the opcode and arguments mean. It holds no pointers on purpose: the
// receiver is the only pointer an event carries, which halves the
// write-barrier work of storing one while the collector is marking.
type Event struct {
	Op   uint32
	A, B uint64
}

// funcHandler adapts a plain function to Handler. A func value is pointer
// shaped, so the conversion to the interface does not allocate.
type funcHandler func()

func (f funcHandler) HandleEvent(Event) { f() }

// Horizon is the number of one-cycle buckets in the wheel: an event due
// less than Horizon cycles ahead is scheduled and fired in O(1), one due
// later goes through the overflow heap. The Fig. 10 runs keep at most a
// few hundred events pending and none further than 16 K cycles out, but a
// PIM run schedules up to half of its events ≥ 1024 cycles ahead; at 4096
// the far share is a few percent at most on every system, BenchmarkQueue's
// pim row halves and the sim-fig10 sweep runs ≈ 1.1× faster than at 1024
// (DESIGN.md §5 has the table). 4096 buckets are also what one summary
// word over 64-bit occupancy words covers. The wheel is 32.5 KB per Queue.
const Horizon = 1 << horizonBits

const (
	horizonBits = 12
	wheelMask   = Horizon - 1
	occWords    = Horizon / 64
)

// The summary bitmap is one word: it covers at most 64 occupancy words.
var _ [64 - occWords]struct{}

// bucket is the FIFO of the events due at one cycle, as slot+1 links into
// the payload slab; head 0 means empty (tail is then stale).
type bucket struct {
	head, tail uint32
}

// entry is one overflow-heap element. It holds no Go pointers, so sifting
// moves plain words with no write barriers; the payload stays put in the
// slab.
type entry struct {
	at, seq uint64
	slot    uint32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// payload is an event at rest: the receiver, the Event's fields, and the
// link (slot+1, 0 ends the list) to the next event of the same bucket or,
// for a vacant slot, to the next vacant one.
type payload struct {
	h    Handler
	op   uint32
	next uint32
	a, b uint64
}

// arity is the overflow heap's branching factor: a 4-ary heap halves the
// depth of a binary one and keeps a node's children in one or two cache
// lines.
const arity = 4

// Queue is a deterministic future-event list. Events scheduled for the same
// cycle run in scheduling order. The zero value is ready to use.
type Queue struct {
	now   uint64
	seq   uint64 // events ever scheduled
	fired uint64 // events ever run
	far   uint64 // events ever scheduled through the overflow

	// The wheel. occ has one bit per bucket, occSum one bit per non-zero
	// word of occ; wheelMin is the earliest occupied cycle while occSum is
	// non-zero.
	wheelMin uint64
	occSum   uint64
	occ      [occWords]uint64
	wheel    [Horizon]bucket

	heap []entry // overflow: arity-ary min-heap on (at, seq)

	// Event payloads live in fixed-size chunks indexed by slot, so growing
	// never copies them. Vacant slots form a list threaded through the
	// payloads' next links.
	chunks   []*[chunkSize]payload
	slots    uint32 // slots ever handed out
	freeHead uint32 // first vacant slot + 1; 0 when none
}

// One chunk holds 256 payloads (10 KB): small enough that a short run
// allocates little, large enough that chunk allocation is rare.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
)

func (q *Queue) payloadAt(slot uint32) *payload {
	return &q.chunks[slot>>chunkBits][slot&(chunkSize-1)]
}

// Now returns the current simulated cycle.
func (q *Queue) Now() uint64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return int(q.seq - q.fired) }

// Fired returns the number of events run so far.
func (q *Queue) Fired() uint64 { return q.fired }

// Far returns how many of the events scheduled so far were due Horizon or
// more cycles ahead and went through the overflow heap.
func (q *Queue) Far() uint64 { return q.far }

// ScheduleEvent registers ev to be delivered to h at absolute cycle at.
// Scheduling in the past runs the event at the current time (it fires on
// the next drain).
func (q *Queue) ScheduleEvent(at uint64, h Handler, ev Event) {
	if at < q.now {
		at = q.now
	}
	var slot uint32
	if q.freeHead != 0 {
		slot = q.freeHead - 1
		q.freeHead = q.payloadAt(slot).next
	} else {
		slot = q.slots
		if int(slot>>chunkBits) == len(q.chunks) {
			q.chunks = append(q.chunks, new([chunkSize]payload))
		}
		q.slots++
	}
	// Field by field: a composite literal is built on the stack and copied,
	// and the copy's wide loads stall on the narrow stores that built it.
	p := q.payloadAt(slot)
	p.h, p.op, p.next, p.a, p.b = h, ev.Op, 0, ev.A, ev.B
	seq := q.seq
	q.seq++

	if at-q.now >= Horizon {
		q.far++
		q.pushOverflow(entry{at: at, seq: seq, slot: slot})
		return
	}
	i := uint(at) & wheelMask
	b := &q.wheel[i]
	if b.head != 0 {
		q.payloadAt(b.tail - 1).next = slot + 1
	} else {
		b.head = slot + 1
		if q.occSum == 0 || at < q.wheelMin {
			q.wheelMin = at
		}
		q.occ[i>>6] |= 1 << (i & 63)
		q.occSum |= 1 << (i >> 6)
	}
	b.tail = slot + 1
}

// Schedule registers fn to run at absolute cycle at, with ScheduleEvent's
// clamping.
func (q *Queue) Schedule(at uint64, fn func()) {
	q.ScheduleEvent(at, funcHandler(fn), Event{})
}

// After registers fn to run delay cycles from now.
func (q *Queue) After(delay uint64, fn func()) { q.Schedule(q.now+delay, fn) }

// PeekTime returns the cycle of the earliest pending event.
func (q *Queue) PeekTime() (uint64, bool) {
	if q.occSum != 0 {
		if len(q.heap) > 0 && q.heap[0].at < q.wheelMin {
			return q.heap[0].at, true
		}
		return q.wheelMin, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].at, true
	}
	return 0, false
}

// RunNext pops and executes the earliest event, advancing the clock to its
// time. It reports whether an event ran.
func (q *Queue) RunNext() bool {
	var slot uint32
	var p *payload
	if len(q.heap) > 0 && (q.occSum == 0 || q.heap[0].at <= q.wheelMin) {
		// The overflow's top is due first, or ties with the wheel: it was
		// scheduled before any wheel event of its cycle.
		top := q.popOverflow()
		q.now = top.at
		slot = top.slot
		p = q.payloadAt(slot)
	} else if q.occSum != 0 {
		q.now = q.wheelMin
		i := uint(q.now) & wheelMask
		b := &q.wheel[i]
		slot = b.head - 1
		p = q.payloadAt(slot)
		b.head = p.next
		if b.head == 0 {
			w := i >> 6
			q.occ[w] &^= 1 << (i & 63)
			if q.occ[w] == 0 {
				q.occSum &^= 1 << w
			}
			if q.occSum != 0 {
				q.wheelMin = q.earliestBucket()
			}
		}
	} else {
		return false
	}

	// Copy the payload out and release its slot before dispatching: the
	// handler may schedule, which may reuse the slot.
	h, ev := p.h, Event{Op: p.op, A: p.a, B: p.b}
	p.h, p.next = nil, q.freeHead
	q.freeHead = slot + 1
	q.fired++
	h.HandleEvent(ev)
	return true
}

// RunUntil executes every event due at or before cycle t, then advances the
// clock to t (if it is not already past it).
func (q *Queue) RunUntil(t uint64) {
	for at, ok := q.PeekTime(); ok && at <= t; at, ok = q.PeekTime() {
		q.RunNext()
	}
	if q.now < t {
		q.now = t
	}
}

// Drain executes all pending events (including ones scheduled while
// draining) and returns the final clock value.
func (q *Queue) Drain() uint64 {
	for q.RunNext() {
	}
	return q.now
}

// pushOverflow sifts e up the heap: move the hole toward the root, then
// drop e into it.
func (q *Queue) pushOverflow(e entry) {
	i := len(q.heap)
	q.heap = append(q.heap, e)
	for i > 0 {
		parent := (i - 1) / arity
		if !e.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// popOverflow removes and returns the heap's top.
func (q *Queue) popOverflow() entry {
	top := q.heap[0]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		// Sift down: move the hole at the root toward the leaves until
		// last fits.
		i := 0
		for {
			first := i*arity + 1
			if first >= n {
				break
			}
			end := min(first+arity, n)
			best := first
			for c := first + 1; c < end; c++ {
				if q.heap[c].before(q.heap[best]) {
					best = c
				}
			}
			if !q.heap[best].before(last) {
				break
			}
			q.heap[i] = q.heap[best]
			i = best
		}
		q.heap[i] = last
	}
	return top
}

// earliestBucket returns the cycle of the first occupied bucket at or after
// the clock. Every pending wheel event is due in [now, now+Horizon), so that
// is the first set bit of occ scanning circularly from bucket now mod
// Horizon. The wheel must not be empty.
func (q *Queue) earliestBucket() uint64 {
	start := uint(q.now) & wheelMask
	w := start >> 6
	if m := q.occ[w] >> (start & 63); m != 0 {
		return q.now + uint64(bits.TrailingZeros64(m))
	}
	// The words after w, else wrap around: the words before w, then the
	// bits of w below start.
	sum := q.occSum
	if above := sum &^ (1<<(w+1) - 1); above != 0 {
		sum = above
	}
	w = uint(bits.TrailingZeros64(sum))
	i := w<<6 | uint(bits.TrailingZeros64(q.occ[w]))
	return q.now + uint64((i-start)&wheelMask)
}
