package mshr

import (
	"math/rand"
	"testing"
)

// convCapacities are the table sizes the differential tests run at: the
// two-slot table, one whose clusters are easy to reason about by hand, and
// the size accel configures.
var convCapacities = []int{1, 4, 256}

// convUniverse returns the n block addresses a test program draws from for
// an MSHR of m's shape. The first three fifths are picked (by search) so
// that their probes start in the table's last three slots — they share
// home slots and their clusters run off the table's end — and the rest are
// ordinary 64B block addresses.
func convUniverse(m *Conventional, n int) []uint64 {
	keys := make([]uint64, 0, n)
	clustered := n * 3 / 5
	next := map[int]uint64{} // where the search for each home resumes
	for i := 0; i < clustered; i++ {
		want := (len(m.slots) - 1 - i%3) & (len(m.slots) - 1)
		b := next[want]
		for m.home(b) != want {
			b += 64
		}
		keys = append(keys, b)
		next[want] = b + 64
	}
	for i := clustered; i < n; i++ {
		keys = append(keys, 1<<40+uint64(i)*64)
	}
	return keys
}

// convModel is the map-based MSHR the table replaced.
type convModel struct {
	capacity int
	entries  map[uint64]int
	stats    Stats
}

func (m *convModel) register(block uint64) (allocated, merged bool) {
	if n, ok := m.entries[block]; ok {
		m.entries[block] = n + 1
		m.stats.Merges++
		return false, true
	}
	if len(m.entries) >= m.capacity {
		m.stats.FullStalls++
		return false, false
	}
	m.entries[block] = 1
	m.stats.Allocs++
	return true, false
}

func (m *convModel) complete(block uint64) int {
	n := m.entries[block]
	delete(m.entries, block)
	return n
}

const convUniverseSize = 400

// runConvProgram interprets prog against a Conventional and the map model
// and fails on the first difference. prog[0] picks the capacity; every
// following three bytes are one operation (Register, Complete, Lookup or
// Len) and a 16-bit index into the key universe.
func runConvProgram(t *testing.T, prog []byte) *Conventional {
	t.Helper()
	if len(prog) == 0 {
		return nil
	}
	capacity := convCapacities[int(prog[0])%len(convCapacities)]
	m := NewConventional(capacity)
	model := &convModel{capacity: capacity, entries: map[uint64]int{}}
	keys := convUniverse(m, convUniverseSize)

	check := func(step int) {
		t.Helper()
		if m.Len() != len(model.entries) {
			t.Fatalf("cap %d step %d: Len = %d, model %d", capacity, step, m.Len(), len(model.entries))
		}
		if m.Stats != model.stats {
			t.Fatalf("cap %d step %d: Stats = %+v, model %+v", capacity, step, m.Stats, model.stats)
		}
		occupied := 0
		for i, s := range m.slots {
			if s.subs == 0 {
				continue
			}
			occupied++
			if m.find(s.block) != i {
				t.Fatalf("cap %d step %d: block %#x in slot %d is unreachable from its home %d", capacity, step, s.block, i, m.home(s.block))
			}
			if model.entries[s.block] != s.subs {
				t.Fatalf("cap %d step %d: block %#x carries %d, model %d", capacity, step, s.block, s.subs, model.entries[s.block])
			}
		}
		if occupied != len(model.entries) {
			t.Fatalf("cap %d step %d: %d occupied slots, model holds %d", capacity, step, occupied, len(model.entries))
		}
	}

	step := 0
	for p := 1; p+2 < len(prog); p += 3 {
		step++
		block := keys[(int(prog[p+1])<<8|int(prog[p+2]))%len(keys)]
		switch prog[p] % 4 {
		case 0:
			a, mg := m.Register(block)
			wa, wm := model.register(block)
			if a != wa || mg != wm {
				t.Fatalf("cap %d step %d: Register(%#x) = (%v, %v), model (%v, %v)", capacity, step, block, a, mg, wa, wm)
			}
		case 1:
			if got, want := m.Complete(block), model.complete(block); got != want {
				t.Fatalf("cap %d step %d: Complete(%#x) = %d, model %d", capacity, step, block, got, want)
			}
		case 2:
			_, want := model.entries[block]
			if got := m.Lookup(block); got != want {
				t.Fatalf("cap %d step %d: Lookup(%#x) = %v, model %v", capacity, step, block, got, want)
			}
		case 3:
			check(step)
		}
		if m.Len() != len(model.entries) {
			t.Fatalf("cap %d step %d: Len = %d, model %d", capacity, step, m.Len(), len(model.entries))
		}
	}
	check(step)
	for _, block := range keys {
		if _, want := model.entries[block]; m.Lookup(block) != want {
			t.Fatalf("cap %d at end: Lookup(%#x) = %v, model %v", capacity, block, !want, want)
		}
	}
	return m
}

// TestConventionalMatchesMapModel drives long random programs that
// alternate between filling the MSHR past its capacity and draining it.
func TestConventionalMatchesMapModel(t *testing.T) {
	for ci := range convCapacities {
		rng := rand.New(rand.NewSource(int64(41 + ci)))
		prog := []byte{byte(ci)}
		for i := 0; i < 30000; i++ {
			op, r := byte(0), rng.Intn(100)
			filling := i/700%2 == 0
			switch {
			case r < 5:
				op = 3
			case r < 15:
				op = 2
			case filling == (r < 75):
				op = 0 // seven in ten while filling, three in ten while draining
			default:
				op = 1
			}
			k := rng.Intn(convUniverseSize)
			if rng.Intn(4) == 0 {
				k = rng.Intn(12) // keep a few shared-home blocks hot
			}
			prog = append(prog, op, byte(k>>8), byte(k))
		}
		m := runConvProgram(t, prog)
		if got := len(m.slots); got < 2*m.capacity || got&(got-1) != 0 {
			t.Errorf("capacity %d: %d slots, want a power of two ≥ twice the capacity", m.capacity, got)
		}
		// The program must have reached what it is for.
		if m.Stats.FullStalls == 0 || m.Stats.Merges == 0 {
			t.Errorf("capacity %d: program never filled the MSHR or never merged: %+v", m.capacity, m.Stats)
		}
	}
}

// TestConventionalFullStalls checks the capacity bound on its own: exactly
// capacity blocks allocate, every further new block stalls and is counted,
// merges still land, and a completion frees one entry.
func TestConventionalFullStalls(t *testing.T) {
	for _, capacity := range convCapacities {
		m := NewConventional(capacity)
		keys := convUniverse(m, convUniverseSize)
		for i := 0; i < capacity; i++ {
			if a, _ := m.Register(keys[i]); !a {
				t.Fatalf("cap %d: block %d of %d did not allocate", capacity, i, capacity)
			}
		}
		for i := capacity; i < capacity+10; i++ {
			if a, mg := m.Register(keys[i]); a || mg {
				t.Fatalf("cap %d: block beyond capacity was accepted", capacity)
			}
		}
		if _, mg := m.Register(keys[0]); !mg {
			t.Fatalf("cap %d: full MSHR refused a merge", capacity)
		}
		if m.Stats.FullStalls != 10 || m.Stats.Allocs != uint64(capacity) || m.Stats.Merges != 1 || m.Len() != capacity {
			t.Fatalf("cap %d: stats %+v, Len %d", capacity, m.Stats, m.Len())
		}
		if n := m.Complete(keys[0]); n != 2 {
			t.Fatalf("cap %d: Complete = %d, want 2", capacity, n)
		}
		if a, _ := m.Register(keys[capacity]); !a {
			t.Fatalf("cap %d: no room after a completion", capacity)
		}
	}
}

// TestConventionalSteadyStateDoesNotAllocate: the table is sized once, so
// the per-miss path — register, merge, look up, complete — allocates
// nothing, at any occupancy.
func TestConventionalSteadyStateDoesNotAllocate(t *testing.T) {
	m := NewConventional(256)
	keys := convUniverse(m, convUniverseSize)
	round := func() {
		for _, b := range keys {
			m.Register(b)
			m.Register(b)
			m.Lookup(b)
		}
		for _, b := range keys {
			m.Complete(b)
		}
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("Conventional allocates %.1f times per round, want 0", avg)
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after every block completed", m.Len())
	}
}

// FuzzConventionalMSHR runs arbitrary programs against the map model. Its
// corpus (testdata/fuzz) holds hand-written programs for the cases a random
// one reaches only by luck, named for what they do; universe keys 0, 3, 6, …
// start their probe in the table's last slot, 1, 4, 7, … in the one before.
func FuzzConventionalMSHR(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runConvProgram(t, prog) })
}
