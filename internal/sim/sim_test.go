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

// runNext fires the next event on both sides.
func (h *diffHarness) runNext(t *testing.T) {
	t.Helper()
	if h.q.RunNext() != h.modelRunNext() {
		t.Fatalf("RunNext disagrees on whether an event was pending")
	}
}

// runUntil runs both sides up to cycle until.
func (h *diffHarness) runUntil(until uint64) {
	h.q.RunUntil(until)
	for len(h.m.events) > 0 && h.m.events[0].at <= until {
		h.modelRunNext()
	}
	if h.m.now < until {
		h.m.now = until
	}
}

// check compares what the queue reports between operations — clock, Len,
// PeekTime, Fired — with the model.
func (h *diffHarness) check(t *testing.T) {
	t.Helper()
	if h.q.Now() != h.m.now || h.q.Len() != len(h.m.events) {
		t.Fatalf("now/len = %d/%d, model %d/%d", h.q.Now(), h.q.Len(), h.m.now, len(h.m.events))
	}
	at, ok := h.q.PeekTime()
	if ok != (len(h.m.events) > 0) || (ok && at != h.m.events[0].at) {
		t.Fatalf("PeekTime = %d,%v with %d pending in the model (first %+v)", at, ok, len(h.m.events), h.m.events[:min(1, len(h.m.events))])
	}
	if h.q.Fired() != uint64(len(h.want)) {
		t.Fatalf("Fired = %d, model fired %d", h.q.Fired(), len(h.want))
	}
}

// finish drains both sides and requires the same events to have fired in
// the same order at the same clock values over the whole run.
func (h *diffHarness) finish(t *testing.T) {
	t.Helper()
	end := h.q.Drain()
	for h.modelRunNext() {
	}
	if end != h.m.now {
		t.Fatalf("Drain ended at %d, model %d", end, h.m.now)
	}
	if !slices.Equal(h.got, h.want) {
		for i := range h.got {
			if i >= len(h.want) || h.got[i] != h.want[i] {
				t.Fatalf("firing %d = %+v, model %+v (of %d/%d)", i, h.got[i], h.want[min(i, len(h.want)-1)], len(h.got), len(h.want))
			}
		}
		t.Fatalf("%d firings, model %d", len(h.got), len(h.want))
	}
	h.check(t)
}

// oneOf draws one of vals.
func oneOf(rng *rand.Rand, vals ...uint64) uint64 { return vals[rng.Intn(len(vals))] }

// diffProfile is where a differential run puts its events: how far ahead a
// top-level event and a handler's child are scheduled, and how far a
// RunUntil jumps.
type diffProfile struct {
	name                string
	delay, child, until func(rng *rand.Rand) uint64
}

var diffProfiles = []diffProfile{
	// Times cluster so that ties are common; everything stays on the wheel.
	{
		name:  "near",
		delay: func(rng *rand.Rand) uint64 { return uint64(rng.Intn(24)) },
		child: func(rng *rand.Rand) uint64 { return uint64(rng.Intn(6)) },
		until: func(rng *rand.Rand) uint64 { return uint64(rng.Intn(12)) },
	},
	// Delays straddle the horizon, so the same cycle is reached through
	// the overflow by early schedulers and through the wheel by late ones;
	// RunUntil jumps further than the wheel is long, so buckets wrap and a
	// far event comes due with the wheel empty.
	{
		name: "horizon",
		delay: func(rng *rand.Rand) uint64 {
			if rng.Intn(2) == 0 {
				return uint64(rng.Intn(24))
			}
			return oneOf(rng, Horizon-1, Horizon, Horizon+1, 2*Horizon, 3*Horizon+5, uint64(rng.Intn(4*Horizon)))
		},
		child: func(rng *rand.Rand) uint64 {
			if rng.Intn(2) == 0 {
				return uint64(rng.Intn(6))
			}
			return oneOf(rng, Horizon-1, Horizon, Horizon+1, uint64(rng.Intn(3*Horizon)))
		},
		until: func(rng *rand.Rand) uint64 {
			switch r := rng.Intn(10); {
			case r < 6:
				return uint64(rng.Intn(12))
			case r < 9:
				return uint64(rng.Intn(Horizon))
			default:
				return Horizon + uint64(rng.Intn(2*Horizon))
			}
		},
	},
}

// TestQueueMatchesSortedSliceModel drives Queue and the model with one
// random interleaving of Schedule (future, present and past times, typed
// and closure payloads, some events scheduling more from inside their
// handler), RunNext, RunUntil and Drain, and requires the same events to
// fire in the same order at the same clock values.
func TestQueueMatchesSortedSliceModel(t *testing.T) {
	for _, prof := range diffProfiles {
		t.Run(prof.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				runDifferential(t, seed, prof)
			}
		})
	}
}

func runDifferential(t *testing.T, seed int64, prof diffProfile) {
	rng := rand.New(rand.NewSource(seed))
	h := &diffHarness{children: map[int][][2]uint64{}}
	nextID := 0
	newID := func() int { nextID++; return nextID }
	step := 0
	defer func() {
		if t.Failed() {
			t.Logf("profile %s, seed %d, step %d", prof.name, seed, step)
		}
	}()
	for ; step < 400; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			id := newID()
			// One event in four schedules up to three more when it
			// fires; delay 0 lands on the firing cycle itself.
			if rng.Intn(4) == 0 {
				for n := rng.Intn(3) + 1; n > 0; n-- {
					h.children[id] = append(h.children[id], [2]uint64{prof.child(rng), uint64(newID())})
				}
			}
			// Some times reach below the clock so that clamping is
			// exercised.
			at := h.q.Now() + prof.delay(rng)
			if rng.Intn(5) == 0 {
				at = uint64(rng.Int63n(int64(h.q.Now() + 1)))
			}
			h.schedule(at, id)
		case r < 8:
			h.runNext(t)
		default:
			h.runUntil(h.q.Now() + prof.until(rng))
		}
		h.check(t)
	}
	h.finish(t)
}

// TestOverflowTiesAndWrap is the directed half of the order argument: an
// event scheduled long ago for cycle T went to the overflow, one scheduled
// recently for T sits in the wheel, and the overflow's must fire first; and
// a window of pending cycles that wraps past the last bucket still fires in
// cycle order.
func TestOverflowTiesAndWrap(t *testing.T) {
	h := &diffHarness{children: map[int][][2]uint64{}}
	const T = Horizon + 10
	h.schedule(T, 1) // far: overflow
	h.schedule(T, 2) // far: overflow, behind 1
	h.schedule(T+1, 3)
	h.check(t)
	if h.q.Far() != 3 {
		t.Fatalf("Far = %d after three schedules at or past the horizon, want 3", h.q.Far())
	}
	h.runUntil(20) // T is now inside the horizon
	h.schedule(T, 4)
	h.schedule(T-1, 5)
	// 6 fires at T from the wheel and schedules 7 for T itself and 8 for
	// T+1 from inside its handler: both behind everything already there.
	h.children[6] = [][2]uint64{{0, 7}, {1, 8}}
	h.schedule(T, 6)
	h.check(t)
	if h.q.Far() != 3 {
		t.Fatalf("Far = %d, want 3: the later schedules were inside the horizon", h.q.Far())
	}
	for h.q.Len() > 0 {
		h.runNext(t)
		h.check(t)
	}
	var order []int
	for _, f := range h.got {
		order = append(order, f.id)
	}
	if want := []int{5, 1, 2, 4, 6, 7, 3, 8}; !slices.Equal(order, want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}

	// Wrap-around: with the clock two cycles short of a multiple of the
	// horizon, the pending window [now, now+Horizon) covers the last two
	// buckets and then the first Horizon-2.
	h.runUntil(3*Horizon - 2)
	id := 100
	for _, d := range []uint64{Horizon - 1, 0, 2, 1, Horizon - 3, 3, Horizon - 1, 2, Horizon, 70, 64, 63} {
		h.schedule(h.q.Now()+d, id)
		id++
		h.check(t)
	}
	// An event inside the window schedules across its far edge.
	h.children[id] = [][2]uint64{{Horizon - 1, uint64(id + 1)}, {Horizon, uint64(id + 2)}, {0, uint64(id + 3)}}
	h.schedule(h.q.Now()+5, id)
	for h.q.Len() > 0 {
		h.runNext(t)
		h.check(t)
	}
	h.finish(t)
}

// FuzzQueueOrder decodes the input as a sequence of queue operations, one
// byte each — an opcode in the low three bits, an argument in the other
// five — and runs them on Queue and the sorted-slice model side by side.
func FuzzQueueOrder(f *testing.F) {
	op := func(code, arg byte) byte { return code | arg<<3 }
	f.Add([]byte{op(0, 3), op(0, 3), op(4, 0), op(4, 0)})                                  // a tie on the wheel
	f.Add([]byte{op(2, 6), op(6, 9), op(0, 14), op(5, 31), op(4, 0), op(4, 0)})            // overflow, then a wheel event for its cycle
	f.Add([]byte{op(7, 0x13), op(7, 0x0e), op(6, 31), op(3, 9), op(4, 0), op(7, 0x1f)})    // handlers scheduling across the horizon
	f.Add([]byte{op(1, 0), op(1, 3), op(1, 4), op(1, 5), op(6, 7), op(0, 0), op(6, 1)})    // both sides of the horizon, then a jump to it
	f.Add([]byte{op(6, 7), op(5, 30), op(0, 1), op(0, 0), op(0, 31), op(2, 1), op(6, 16)}) // the pending window wraps past the last bucket
	f.Fuzz(func(t *testing.T, data []byte) {
		// Delays a handler's children are scheduled with.
		childDelays := [8]uint64{0, 1, Horizon - 1, Horizon, Horizon + 1, 2*Horizon + 3, 17, 63}
		h := &diffHarness{children: map[int][][2]uint64{}}
		nextID := 0
		newID := func() int { nextID++; return nextID }
		for _, b := range data[:min(len(data), 512)] {
			arg := uint64(b >> 3)
			now := h.q.Now()
			switch b & 7 {
			case 0: // near
				h.schedule(now+arg, newID())
			case 1: // on either side of the horizon
				h.schedule(now+Horizon-4+arg%8, newID())
			case 2: // anywhere up to six horizons out
				h.schedule(now+arg*797, newID())
			case 3: // in the past
				h.schedule(now-min(now, arg*arg), newID())
			case 4:
				h.runNext(t)
			case 5:
				h.runUntil(now + arg)
			case 6: // up to four horizons
				h.runUntil(now + arg*512)
			case 7: // an event whose handler schedules one to three more, one of them nesting again
				id := newID()
				for k := uint64(0); k <= arg%3; k++ {
					child := newID()
					h.children[id] = append(h.children[id], [2]uint64{childDelays[(arg>>2+k)%8], uint64(child)})
					if k == 0 && arg&0x10 != 0 {
						h.children[child] = [][2]uint64{{childDelays[(arg>>1)%8], uint64(newID())}}
					}
				}
				h.schedule(now+arg%16, id)
			}
			h.check(t)
		}
		h.finish(t)
	})
}

// countHandler is a typed-event receiver for the allocation tests.
type countHandler struct{ fired, sum uint64 }

func (c *countHandler) HandleEvent(ev Event) {
	c.fired++
	c.sum += ev.A
}

// TestTypedEventsDoNotAllocate: once the overflow heap and the slab have
// grown to the working set, scheduling and running typed events allocates
// nothing — on the wheel alone, and with a share of the events going
// through the overflow.
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
	if q.Far() != 0 {
		t.Errorf("Far = %d after wheel-only rounds, want 0", q.Far())
	}

	// One event in four is due past the horizon, some of them on a cycle
	// that later wheel events share.
	farRound := func() {
		base := q.Now()
		for i := uint64(0); i < 64; i++ {
			at := base + (i*7)%16
			if i%4 == 0 {
				at += Horizon
			}
			q.ScheduleEvent(at, h, Event{Op: 1, A: i, B: ^i})
		}
		q.RunUntil(base + Horizon)
		q.ScheduleEvent(base+Horizon+4, h, Event{Op: 1})
		q.Drain()
	}
	farRound()
	if allocs := testing.AllocsPerRun(100, farRound); allocs != 0 {
		t.Errorf("steady-state schedule+run with overflow events: %v allocs per round, want 0", allocs)
	}
	if want := uint64(102 * 16); q.Far() != want {
		t.Errorf("Far = %d after the overflow rounds, want %d", q.Far(), want)
	}
	if q.Len() != 0 || q.Fired() != h.fired {
		t.Errorf("Len = %d, Fired = %d, handler saw %d", q.Len(), q.Fired(), h.fired)
	}
}

// BenchmarkQueue measures one schedule+fire of a typed event in the two
// regimes the Fig. 10 runs keep the queue in (DESIGN.md §5 has the probe):
// "near" is a few hundred events all due within a hundred cycles, what the
// scratchpad and cache systems look like; "pim" has 400 pending with a
// third of the delays 1024 to 4607 cycles out, as a PIM run's bank-busy
// completions are. The second row is the one the Horizon constant answers
// to: at 1024 that third pays the overflow heap, at 4096 one event in
// twenty does.
func BenchmarkQueue(b *testing.B) {
	b.Run("near", func(b *testing.B) {
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
	})
	b.Run("pim", func(b *testing.B) {
		var q Queue
		h := &countHandler{}
		x := uint64(88172645463325252)
		delay := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x%3 == 0 {
				return 1024 + (x>>8)%3584
			}
			return (x >> 8) % 256
		}
		const pending = 400
		for i := uint64(0); i < pending; i++ {
			q.ScheduleEvent(delay(), h, Event{A: i})
		}
		// Reach the steady state: the slab and the overflow heap at size.
		for i := 0; i < 16*pending; i++ {
			q.ScheduleEvent(q.Now()+delay(), h, Event{A: uint64(i)})
			q.RunNext()
		}
		far := q.Far()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.ScheduleEvent(q.Now()+delay(), h, Event{A: uint64(i)})
			q.RunNext()
		}
		b.ReportMetric(float64(q.Far()-far)/float64(b.N), "far/op")
	})
}
