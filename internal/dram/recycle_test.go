package dram

import (
	"slices"
	"testing"

	"piccolo/internal/sim"
)

// TestReqFIFO checks the queue behind bank.pick and serveNMP: removing the
// i-th oldest keeps the others in order, every vacated slot is nil-ed, and
// a queue that drains as fast as it fills never grows its backing array.
func TestReqFIFO(t *testing.T) {
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = &Request{Addr: uint64(i)}
	}
	var f reqFIFO
	for _, r := range reqs[:6] {
		f.push(r)
	}
	if got := f.remove(3); got != reqs[3] {
		t.Fatalf("remove(3) returned request %d", got.Addr)
	}
	if got := f.remove(0); got != reqs[0] {
		t.Fatalf("remove(0) returned request %d", got.Addr)
	}
	var order []uint64
	for i := 0; i < f.len(); i++ {
		order = append(order, f.at(i).Addr)
	}
	if !slices.Equal(order, []uint64{1, 2, 4, 5}) {
		t.Errorf("order after removals = %v, want [1 2 4 5]", order)
	}
	live := map[*Request]bool{reqs[1]: true, reqs[2]: true, reqs[4]: true, reqs[5]: true}
	for i, r := range f.buf[:cap(f.buf)] {
		if r != nil && !live[r] {
			t.Errorf("slot %d still holds dequeued request %d", i, r.Addr)
		}
	}

	for f.len() > 0 {
		f.remove(0)
	}
	grown := cap(f.buf)
	for i := 0; i < 1000; i++ {
		f.push(reqs[i%8])
		f.push(reqs[(i+1)%8])
		f.remove(1)
		f.remove(0)
	}
	if cap(f.buf) != grown {
		t.Errorf("backing array grew from %d to %d slots under steady push/remove", grown, cap(f.buf))
	}
	for i, r := range f.buf[:cap(f.buf)] {
		if r != nil {
			t.Errorf("empty queue: slot %d holds request %d", i, r.Addr)
		}
	}
}

// completion is what an OnComplete observed, copied out of the request.
type completion struct {
	kind ReqKind
	addr uint64
	tag  uint64
	at   uint64
}

// TestRecycledRequestIsNotAliased completes a pooled request, takes the
// recycled object back from NewRequest, resubmits it as a different
// operation on another row while its old bank still has work queued, and
// checks that nothing the controller kept from the first life is served
// again: every submission completes exactly once with its own values.
func TestRecycledRequestIsNotAliased(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	rowStride := s.Cfg.RowBytes * uint64(s.Cfg.Channels*s.Cfg.Ranks*s.Cfg.Banks)

	var log []completion
	record := func(req *Request, now uint64) {
		log = append(log, completion{req.Kind, req.Addr, req.Tag, now})
	}
	submit := func(kind ReqKind, addr, tag uint64) *Request {
		req := s.NewRequest()
		req.Kind, req.Addr, req.Class, req.Tag, req.OnComplete = kind, addr, ClassVTemp, tag, record
		s.Submit(req)
		return req
	}

	// Four reads queue on one bank (same bank, rows 0,1,0,1), so the
	// FR-FCFS pick dequeues from the middle of the queue.
	first := submit(ReqRead, 0, 1)
	submit(ReqRead, rowStride, 2)
	submit(ReqRead, 64, 3)
	submit(ReqRead, rowStride+64, 4)
	for len(log) == 0 {
		if !q.RunNext() {
			t.Fatal("queue ran dry before the first completion")
		}
	}
	firstSeen := log[0]
	if firstSeen.kind != ReqRead || firstSeen.addr != 0 || firstSeen.tag != 1 {
		t.Fatalf("first completion = %+v, want the read of address 0", firstSeen)
	}

	// The free-list hands the completed object out again.
	again := s.NewRequest()
	if again != first {
		t.Fatal("NewRequest did not return the recycled request")
	}
	if again.Kind != ReqRead || again.Addr != 0 || again.Tag != 0 || again.OnComplete != nil || len(again.ItemAddrs) != 0 {
		t.Fatalf("recycled request not zeroed: %+v", again)
	}
	again.Kind, again.Addr, again.Class, again.Tag, again.OnComplete = ReqWrite, 5*rowStride+128, ClassWriteback, 5, record
	s.Submit(again)
	q.Drain()

	if log[0] != firstSeen {
		t.Errorf("first completion changed after its request was reused: %+v, was %+v", log[0], firstSeen)
	}
	if len(log) != 5 || s.Pending() != 0 {
		t.Fatalf("%d completions, %d pending; want 5 and 0", len(log), s.Pending())
	}
	seen := map[uint64]completion{}
	for _, c := range log {
		if _, dup := seen[c.tag]; dup {
			t.Errorf("submission %d completed twice", c.tag)
		}
		seen[c.tag] = c
	}
	want := map[uint64]completion{
		1: {kind: ReqRead, addr: 0},
		2: {kind: ReqRead, addr: rowStride},
		3: {kind: ReqRead, addr: 64},
		4: {kind: ReqRead, addr: rowStride + 64},
		5: {kind: ReqWrite, addr: 5*rowStride + 128},
	}
	for tag, w := range want {
		if got := seen[tag]; got.kind != w.kind || got.addr != w.addr {
			t.Errorf("submission %d completed as %v@%#x, want %v@%#x", tag, got.kind, got.addr, w.kind, w.addr)
		}
	}
	if s.Stats.NRD != 4 || s.Stats.NWR != 1 {
		t.Errorf("commands = %d reads / %d writes, want 4 / 1", s.Stats.NRD, s.Stats.NWR)
	}
	// No bank or rank queue may still reach a request: all five objects
	// are on the free-list and will be handed out again.
	for _, ch := range s.channels {
		for _, rk := range ch.ranks {
			queues := []*reqFIFO{&rk.nmpQueue}
			for _, b := range rk.banks {
				queues = append(queues, &b.queue)
			}
			for _, f := range queues {
				for i, r := range f.buf[:cap(f.buf)] {
					if r != nil {
						t.Errorf("a drained queue still holds request %v@%#x in slot %d", r.Kind, r.Addr, i)
					}
				}
			}
		}
	}
}

// TestCallerAllocatedRequestIsNotRecycled: only NewRequest requests join
// the free-list.
func TestCallerAllocatedRequestIsNotRecycled(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	own := &Request{Kind: ReqRead, Addr: 4096}
	s.Submit(own)
	q.Drain()
	if own.Kind != ReqRead || own.Addr != 4096 {
		t.Errorf("caller's request was reset: %+v", own)
	}
	if got := s.NewRequest(); got == own {
		t.Error("NewRequest handed out a caller-allocated request")
	}
}

// TestPooledSubmitDoesNotAllocate: with the free-list, the bank queues and
// the event queue warmed, a read costs no allocation from NewRequest to
// its completion callback — whether it finds its bank idle or queues.
func TestPooledSubmitDoesNotAllocate(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	completed := 0
	done := func(*Request, uint64) { completed++ }
	round := func() {
		for i := uint64(0); i < 48; i++ {
			req := s.NewRequest()
			req.Kind, req.Addr, req.Class, req.OnComplete = ReqRead, i*4160, ClassTopology, done
			s.Submit(req)
		}
		q.Drain()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("48 pooled reads, submit to completion: %v allocs, want 0", allocs)
	}
	if completed != 52*48 {
		t.Errorf("%d completions, want %d", completed, 52*48)
	}
}

// BenchmarkSubmitDrain measures one pooled read from NewRequest to its
// completion callback, 64 in flight at a time like a windowed core.
func BenchmarkSubmitDrain(b *testing.B) {
	q := &sim.Queue{}
	s := MustNew(DDR4(16), q)
	completed := 0
	done := func(*Request, uint64) { completed++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := s.NewRequest()
		req.Kind, req.Addr, req.Class, req.OnComplete = ReqRead, uint64(i)*4160, ClassTopology, done
		s.Submit(req)
		if i%64 == 63 {
			q.Drain()
		}
	}
	q.Drain()
	if completed != b.N {
		b.Fatalf("%d completions for %d submissions", completed, b.N)
	}
}
