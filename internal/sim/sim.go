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
package sim

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

// entry is one heap element. It holds no Go pointers, so sifting moves
// plain words with no write barriers; the payload stays put in the slab.
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

type payload struct {
	h  Handler
	ev Event
}

// arity is the heap's branching factor: a 4-ary heap halves the depth of a
// binary one and keeps a node's children in one or two cache lines.
const arity = 4

// Queue is a deterministic future-event list. Events scheduled for the same
// cycle run in scheduling order. The zero value is ready to use.
type Queue struct {
	now  uint64
	seq  uint64
	heap []entry // arity-ary min-heap on (at, seq)

	// Event payloads live in fixed-size chunks indexed by entry.slot, so
	// growing never copies them. Vacant slots form a list threaded through
	// the payloads themselves (ev.A holds the next vacant slot + 1).
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
func (q *Queue) Len() int { return len(q.heap) }

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
		q.freeHead = uint32(q.payloadAt(slot).ev.A)
	} else {
		slot = q.slots
		if int(slot>>chunkBits) == len(q.chunks) {
			q.chunks = append(q.chunks, new([chunkSize]payload))
		}
		q.slots++
	}
	*q.payloadAt(slot) = payload{h, ev}
	e := entry{at: at, seq: q.seq, slot: slot}
	q.seq++

	// Sift up: move the hole toward the root, then drop e into it.
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

// Schedule registers fn to run at absolute cycle at, with ScheduleEvent's
// clamping.
func (q *Queue) Schedule(at uint64, fn func()) {
	q.ScheduleEvent(at, funcHandler(fn), Event{})
}

// After registers fn to run delay cycles from now.
func (q *Queue) After(delay uint64, fn func()) { q.Schedule(q.now+delay, fn) }

// PeekTime returns the cycle of the earliest pending event.
func (q *Queue) PeekTime() (uint64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// RunNext pops and executes the earliest event, advancing the clock to its
// time. It reports whether an event ran.
func (q *Queue) RunNext() bool {
	n := len(q.heap)
	if n == 0 {
		return false
	}
	top := q.heap[0]
	n--
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

	// Copy the payload out and release its slot before dispatching: the
	// handler may schedule, which may reuse the slot.
	vacated := q.payloadAt(top.slot)
	p := *vacated
	*vacated = payload{ev: Event{A: uint64(q.freeHead)}}
	q.freeHead = top.slot + 1
	if top.at > q.now {
		q.now = top.at
	}
	p.h.HandleEvent(p.ev)
	return true
}

// RunUntil executes every event due at or before cycle t, then advances the
// clock to t (if it is not already past it).
func (q *Queue) RunUntil(t uint64) {
	for len(q.heap) > 0 && q.heap[0].at <= t {
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
