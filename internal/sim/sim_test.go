package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndDrain(t *testing.T) {
	var q Queue
	var order []int
	q.Schedule(10, func() { order = append(order, 1) })
	q.Schedule(5, func() { order = append(order, 0) })
	q.Schedule(10, func() { order = append(order, 2) }) // same cycle: FIFO
	end := q.Drain()
	if end != 10 {
		t.Errorf("Drain returned %d, want 10", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("execution order %v, want [0 1 2]", order)
	}
}

func TestAfterAndNow(t *testing.T) {
	var q Queue
	var at uint64
	q.Schedule(7, func() {
		q.After(3, func() { at = q.Now() })
	})
	q.Drain()
	if at != 10 {
		t.Errorf("nested After fired at %d, want 10", at)
	}
}

func TestSchedulePastClamps(t *testing.T) {
	var q Queue
	q.Schedule(100, func() {})
	q.RunNext()
	fired := uint64(0)
	q.Schedule(50, func() { fired = q.Now() }) // in the past
	q.Drain()
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var ran []uint64
	for _, at := range []uint64{3, 6, 9} {
		at := at
		q.Schedule(at, func() { ran = append(ran, at) })
	}
	q.RunUntil(6)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(6) executed %v, want events at 3 and 6", ran)
	}
	if q.Now() != 6 {
		t.Errorf("Now = %d, want 6", q.Now())
	}
	q.RunUntil(4) // must not rewind
	if q.Now() != 6 {
		t.Errorf("Now after RunUntil(4) = %d, want 6", q.Now())
	}
	if q.Len() != 1 {
		t.Errorf("pending = %d, want 1", q.Len())
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue reported an event")
	}
	q.Schedule(42, func() {})
	if at, ok := q.PeekTime(); !ok || at != 42 {
		t.Errorf("PeekTime = %d,%v, want 42,true", at, ok)
	}
}

// Property: events always run in nondecreasing time order, and same-time
// events run in scheduling order, regardless of insertion order.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		type fired struct{ at, seq uint64 }
		var log []fired
		for i, r := range raw {
			at := uint64(r % 32)
			seq := uint64(i)
			q.Schedule(at, func() { log = append(log, fired{q.Now(), seq}) })
			// Occasionally interleave execution with scheduling.
			if rng.Intn(4) == 0 {
				q.RunNext()
			}
		}
		q.Drain()
		if len(log) != len(raw) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq <= log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// modelQueue is the trivially correct future-event list the differential
// test compares Queue with: a slice kept sorted by (at, seq).
type modelQueue struct {
	now, seq uint64
	events   []modelEvent
}

type modelEvent struct {
	at, seq uint64
	id      int
}

func (m *modelQueue) schedule(at uint64, id int) {
	if at < m.now {
		at = m.now
	}
	e := modelEvent{at: at, seq: m.seq, id: id}
	m.seq++
	i := sort.Search(len(m.events), func(i int) bool {
		o := m.events[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	m.events = slices.Insert(m.events, i, e)
}

func (m *modelQueue) runNext() (modelEvent, bool) {
	if len(m.events) == 0 {
		return modelEvent{}, false
	}
	e := m.events[0]
	m.events = m.events[1:]
	if e.at > m.now {
		m.now = e.at
	}
	return e, true
}

// firing is one event delivery as the differential test records it.
type firing struct {
	id  int
	now uint64
}

// diffHarness drives a Queue and a modelQueue with the same operations.
// Event id's handler schedules children[id] (delay, child id) pairs from
// inside the handler, alternating between the typed and the closure form.
type diffHarness struct {
	q        Queue
	m        modelQueue
	children map[int][][2]uint64
	got      []firing
	want     []firing
}

func (h *diffHarness) HandleEvent(ev Event) { h.fire(int(ev.A)) }

func (h *diffHarness) fire(id int) {
	h.got = append(h.got, firing{id, h.q.Now()})
	for _, c := range h.children[id] {
		h.scheduleQueue(h.q.Now()+c[0], int(c[1]))
	}
}

func (h *diffHarness) scheduleQueue(at uint64, id int) {
	if id%2 == 0 {
		h.q.ScheduleEvent(at, h, Event{A: uint64(id)})
	} else {
		h.q.Schedule(at, func() { h.fire(id) })
	}
}

func (h *diffHarness) schedule(at uint64, id int) {
	h.scheduleQueue(at, id)
	h.m.schedule(at, id)
}

// modelRunNext fires the model's next event, including its children.
func (h *diffHarness) modelRunNext() bool {
	e, ok := h.m.runNext()
	if !ok {
		return false
	}
	h.want = append(h.want, firing{e.id, h.m.now})
	for _, c := range h.children[e.id] {
		h.m.schedule(h.m.now+c[0], int(c[1]))
	}
	return true
}

// TestQueueMatchesSortedSliceModel drives Queue and the model with one
// random interleaving of Schedule (future, present and past times, typed
// and closure payloads, some events scheduling more from inside their
// handler), RunNext, RunUntil and Drain, and requires the same events to
// fire in the same order at the same clock values.
func TestQueueMatchesSortedSliceModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &diffHarness{children: map[int][][2]uint64{}}
		nextID := 0
		newID := func() int { nextID++; return nextID }
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				id := newID()
				// One event in four schedules up to three more when it
				// fires; delay 0 lands on the firing cycle itself.
				if rng.Intn(4) == 0 {
					for n := rng.Intn(3) + 1; n > 0; n-- {
						h.children[id] = append(h.children[id], [2]uint64{uint64(rng.Intn(6)), uint64(newID())})
					}
				}
				// Times cluster so that ties are common, and reach below
				// the clock so that clamping is exercised.
				at := h.q.Now() + uint64(rng.Intn(24))
				if rng.Intn(5) == 0 {
					at = uint64(rng.Int63n(int64(h.q.Now() + 1)))
				}
				h.schedule(at, id)
			case r < 8:
				if h.q.RunNext() != h.modelRunNext() {
					t.Fatalf("seed %d step %d: RunNext disagrees on whether an event was pending", seed, step)
				}
			default:
				until := h.q.Now() + uint64(rng.Intn(12))
				h.q.RunUntil(until)
				for len(h.m.events) > 0 && h.m.events[0].at <= until {
					h.modelRunNext()
				}
				if h.m.now < until {
					h.m.now = until
				}
			}
			if h.q.Now() != h.m.now || h.q.Len() != len(h.m.events) {
				t.Fatalf("seed %d step %d: now/len = %d/%d, model %d/%d", seed, step, h.q.Now(), h.q.Len(), h.m.now, len(h.m.events))
			}
			if at, ok := h.q.PeekTime(); ok && at != h.m.events[0].at {
				t.Fatalf("seed %d step %d: PeekTime = %d, model %d", seed, step, at, h.m.events[0].at)
			}
		}
		end := h.q.Drain()
		for h.modelRunNext() {
		}
		if end != h.m.now {
			t.Fatalf("seed %d: Drain ended at %d, model %d", seed, end, h.m.now)
		}
		if !slices.Equal(h.got, h.want) {
			for i := range h.got {
				if i >= len(h.want) || h.got[i] != h.want[i] {
					t.Fatalf("seed %d: firing %d = %+v, model %+v (of %d/%d)", seed, i, h.got[i], h.want[min(i, len(h.want)-1)], len(h.got), len(h.want))
				}
			}
			t.Fatalf("seed %d: %d firings, model %d", seed, len(h.got), len(h.want))
		}
	}
}

// countHandler is a typed-event receiver for the allocation tests.
type countHandler struct{ fired, sum uint64 }

func (c *countHandler) HandleEvent(ev Event) {
	c.fired++
	c.sum += ev.A
}

// TestTypedEventsDoNotAllocate: once the heap and slab have grown to the
// working set, scheduling and running typed events allocates nothing.
func TestTypedEventsDoNotAllocate(t *testing.T) {
	var q Queue
	h := &countHandler{}
	round := func() {
		base := q.Now()
		for i := uint64(0); i < 64; i++ {
			q.ScheduleEvent(base+(i*7)%16, h, Event{Op: 1, A: i, B: ^i})
		}
		q.RunUntil(base + 8)
		q.Drain()
	}
	round() // warm the heap, the slab and the free-list
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state schedule+run of typed events: %v allocs per round, want 0", allocs)
	}
	if h.fired != 102*64 {
		t.Errorf("fired %d events, want %d", h.fired, 102*64)
	}
}

// BenchmarkQueue measures one schedule+fire of a typed event with a few
// hundred events pending, the regime a windowed engine keeps the queue in.
func BenchmarkQueue(b *testing.B) {
	var q Queue
	h := &countHandler{}
	const pending = 512
	for i := uint64(0); i < pending; i++ {
		q.ScheduleEvent(i*3%97, h, Event{A: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleEvent(q.Now()+uint64(i*7%97), h, Event{A: uint64(i)})
		q.RunNext()
	}
}
