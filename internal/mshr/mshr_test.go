package mshr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConventionalRegisterMergeComplete(t *testing.T) {
	m := NewConventional(2)
	alloc, merged := m.Register(0x100)
	if !alloc || merged {
		t.Fatalf("first register: alloc=%v merged=%v", alloc, merged)
	}
	alloc, merged = m.Register(0x100)
	if alloc || !merged {
		t.Fatalf("secondary miss: alloc=%v merged=%v", alloc, merged)
	}
	if !m.Lookup(0x100) {
		t.Error("lookup failed")
	}
	m.Register(0x200)
	if alloc, merged = m.Register(0x300); alloc || merged {
		t.Error("full MSHR allocated")
	}
	if m.Stats.FullStalls != 1 {
		t.Errorf("FullStalls = %d", m.Stats.FullStalls)
	}
	if n := m.Complete(0x100); n != 2 {
		t.Errorf("Complete = %d subentries, want 2", n)
	}
	if m.Lookup(0x100) {
		t.Error("entry survives completion")
	}
	if n := m.Complete(0x999); n != 0 {
		t.Errorf("Complete(absent) = %d", n)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

// keep appends deep copies of fl to dst: returned flushes are views of the
// collection's scratch storage, valid only until its next call.
func keep(dst, fl []Flush) []Flush {
	for _, f := range fl {
		f.Addrs = slices.Clone(f.Addrs)
		f.Subs = slices.Clone(f.Subs)
		dst = append(dst, f)
	}
	return dst
}

func TestCollectionFillsToOp(t *testing.T) {
	c := NewCollection(8, 8)
	var flushes []Flush
	for i := 0; i < 8; i++ {
		served, fl := c.ReadMiss(uint64(i*8), 42)
		if served {
			t.Fatal("read served with no pending writeback")
		}
		flushes = keep(flushes, fl)
	}
	if len(flushes) != 1 {
		t.Fatalf("flushes = %d, want 1 full gather", len(flushes))
	}
	f := flushes[0]
	if f.Scatter || f.Items() != 8 || f.Key != 42 {
		t.Errorf("flush = %+v", f)
	}
	if f.TotalSubs() != 8 {
		t.Errorf("TotalSubs = %d", f.TotalSubs())
	}
	if c.Pending() != 0 {
		t.Errorf("pending = %d after flush", c.Pending())
	}
}

func TestCollectionMergesDuplicates(t *testing.T) {
	c := NewCollection(8, 8)
	c.ReadMiss(0x10, 7)
	served, fl := c.ReadMiss(0x10, 7)
	if served || len(fl) != 0 {
		t.Fatalf("duplicate miss: served=%v flushes=%d", served, len(fl))
	}
	if c.Stats.Merges != 1 {
		t.Errorf("Merges = %d", c.Stats.Merges)
	}
	flushes := c.Drain()
	if len(flushes) != 1 || flushes[0].TotalSubs() != 2 {
		t.Fatalf("drain = %+v", flushes)
	}
	if c.Stats.Partial != 1 {
		t.Errorf("partial flush not counted: %+v", c.Stats)
	}
}

func TestCollectionServesFromWriteback(t *testing.T) {
	c := NewCollection(8, 8)
	if fl := c.Writeback(0x20, 9); len(fl) != 0 {
		t.Fatalf("writeback flushed early: %v", fl)
	}
	served, fl := c.ReadMiss(0x20, 9)
	if !served || len(fl) != 0 {
		t.Errorf("read not served from pending writeback data (served=%v)", served)
	}
	if c.Stats.Served != 1 {
		t.Errorf("Served = %d", c.Stats.Served)
	}
}

func TestCollectionWritebackCoalesces(t *testing.T) {
	c := NewCollection(8, 8)
	c.Writeback(0x20, 9)
	c.Writeback(0x20, 9)
	fl := c.Drain()
	if len(fl) != 1 || fl[0].Items() != 1 || !fl[0].Scatter {
		t.Fatalf("drain = %+v", fl)
	}
}

func TestCollectionConflictEvictsPartial(t *testing.T) {
	c := NewCollection(4, 8) // keys 4 apart collide
	c.ReadMiss(0x8, 1)
	c.ReadMiss(0x10, 1)
	_, fl := c.ReadMiss(0x100, 5) // 5 % 4 == 1: conflict
	if len(fl) != 1 {
		t.Fatalf("conflict produced %d flushes, want 1 partial", len(fl))
	}
	if fl[0].Key != 1 || fl[0].Items() != 2 || fl[0].Scatter {
		t.Errorf("partial flush = %+v", fl[0])
	}
	if c.Stats.Partial != 1 {
		t.Errorf("Partial = %d", c.Stats.Partial)
	}
}

func TestCollectionScatterFillsToOp(t *testing.T) {
	c := NewCollection(8, 4)
	var flushes []Flush
	for i := 0; i < 4; i++ {
		flushes = keep(flushes, c.Writeback(uint64(i*8), 3))
	}
	if len(flushes) != 1 || !flushes[0].Scatter || flushes[0].Items() != 4 {
		t.Fatalf("flushes = %+v", flushes)
	}
}

func TestCollectionDrainEmptiesEverything(t *testing.T) {
	c := NewCollection(16, 8)
	rng := rand.New(rand.NewSource(1))
	issued := 0
	for i := 0; i < 100; i++ {
		key := rng.Uint64() % 32
		addr := (rng.Uint64() % (1 << 20)) &^ 7
		if rng.Intn(2) == 0 {
			_, fl := c.ReadMiss(addr, key)
			issued += len(fl)
		} else {
			issued += len(c.Writeback(addr, key))
		}
	}
	issued += len(c.Drain())
	if c.Pending() != 0 {
		t.Errorf("pending = %d after drain", c.Pending())
	}
	if issued == 0 {
		t.Error("no flushes at all")
	}
}

// Property: every registered address is dispatched in exactly one flush
// (unless served from writeback data), and no flush exceeds ItemsPerOp.
func TestCollectionConservationProperty(t *testing.T) {
	f := func(seed int64, entries, items uint8) bool {
		c := NewCollection(int(entries%16)+1, int(items%8)+1)
		rng := rand.New(rand.NewSource(seed))
		readsIn := map[uint64]int{}
		readsOut := map[uint64]int{}
		var flushes []Flush
		for i := 0; i < 500; i++ {
			key := rng.Uint64() % 24
			addr := ((rng.Uint64() % (1 << 16)) &^ 7) | key<<32 // addr implies key
			if rng.Intn(3) > 0 {
				served, fl := c.ReadMiss(addr, key)
				if !served {
					readsIn[addr]++
				}
				flushes = keep(flushes, fl)
			} else {
				flushes = keep(flushes, c.Writeback(addr, key))
			}
		}
		flushes = keep(flushes, c.Drain())
		for _, f := range flushes {
			if f.Items() > c.ItemsPerOp() || f.Items() == 0 {
				return false
			}
			if len(f.Addrs) != len(f.Subs) {
				return false
			}
			for i, a := range f.Addrs {
				if !f.Scatter {
					readsOut[a] += f.Subs[i]
				}
			}
		}
		for a, n := range readsIn {
			if readsOut[a] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCollectionSteadyStateDoesNotAllocate: once entries and scratch
// flushes have grown to ItemsPerOp, merging, allocating, conflict-evicting
// and dispatching full operations allocate nothing, on both sides.
func TestCollectionSteadyStateDoesNotAllocate(t *testing.T) {
	c := NewCollection(4, 8)
	dispatched := 0
	i := uint64(0)
	round := func() {
		// 6 keys over 4 entries: conflicts evict partial operations;
		// revisited words merge; eight distinct words fill an entry.
		for n := 0; n < 64; n++ {
			i++
			key := (i / 5) % 6
			addr := key<<20 | (i%11)*8
			for rep := 0; rep < 2; rep++ { // the repeat merges
				_, fl := c.ReadMiss(addr, key)
				dispatched += len(fl)
				dispatched += len(c.Writeback(addr+0x1000, key))
			}
		}
	}
	for n := 0; n < 8; n++ {
		round()
	}
	before := c.Stats
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("ReadMiss/Writeback steady state: %v allocs per 128 pairs, want 0", allocs)
	}
	if c.Stats.Merges == before.Merges || c.Stats.Flushes == before.Flushes || c.Stats.Partial == before.Partial || dispatched == 0 {
		t.Errorf("the pattern did not exercise merge, full and partial dispatch: %+v → %+v", before, c.Stats)
	}
}

// TestCollectionSlotIndexing: the direct-mapped index is key mod entries at
// every entry count — by mask at the power-of-two counts core.Run derives,
// by division elsewhere.
func TestCollectionSlotIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, entries := range []int{1, 2, 6, 48, 64, 100, 4096} {
		c := NewCollection(entries, 8)
		for i := 0; i < 2000; i++ {
			key := rng.Uint64() >> uint(rng.Intn(64))
			if got, want := c.slot(c.ga, key), &c.ga[key%uint64(entries)]; got != want {
				t.Fatalf("entries %d: key %#x maps to the wrong gather entry", entries, key)
			}
			if got, want := c.slot(c.sc, key), &c.sc[key%uint64(entries)]; got != want {
				t.Fatalf("entries %d: key %#x maps to the wrong scatter entry", entries, key)
			}
		}
	}
}
