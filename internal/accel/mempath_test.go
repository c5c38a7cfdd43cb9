package accel

import (
	"testing"

	"piccolo/internal/dram"
	"piccolo/internal/sim"
)

// TestMemPathAllocatesNothing pins the zero-allocation guarantee of the
// random-access path: once warmed, a round of missing reads and writes
// (line fills, gathers, dirty write-backs and scatters) followed by a full
// drain allocates nothing.
func TestMemPathAllocatesNothing(t *testing.T) {
	for _, sys := range []System{GraphDynsCache, Piccolo} {
		q := &sim.Queue{}
		mp, err := NewMemPath(Config{System: sys, OnChipBytes: 4 << 10}, dram.MustNew(dram.DDR4(16), q), q)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			x := uint64(1)
			for i := 0; i < 30; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				mp.Access(VtempBase+8*(x>>46), i%3 == 0, dram.ClassVTemp)
			}
			mp.Finish()
		}
		// Warm-up: the collection's item buffers circulate between entries
		// and flush slots, and each grows until it holds a full operation.
		for i := 0; i < 10; i++ {
			round()
		}
		if n := testing.AllocsPerRun(10, round); n != 0 {
			t.Errorf("%s: %.1f allocations per round, want 0", sys, n)
		}
		if mp.outstanding != 0 {
			t.Errorf("%s: %d accesses outstanding after Finish", sys, mp.outstanding)
		}
	}
}

func TestCheckCacheDesign(t *testing.T) {
	for _, c := range []struct {
		sys    System
		design string
		ok     bool
	}{
		{GraphDynsCache, "conventional", true},
		{GraphDynsCache, "piccolo", false},
		{Piccolo, "piccolo", true},
		{Piccolo, "conventional", false},
		{NMP, "sectored", true},
		{GraphDynsSPM, "conventional", true}, // scratchpads ignore the design
		{PIM, "piccolo", true},
		{PIM, "bogus", false},
	} {
		if err := CheckCacheDesign(c.sys, c.design); (err == nil) != c.ok {
			t.Errorf("CheckCacheDesign(%s, %q) = %v, want ok=%v", c.sys, c.design, err, c.ok)
		}
	}
}
