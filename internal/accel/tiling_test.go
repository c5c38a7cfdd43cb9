package accel

import (
	"testing"

	"piccolo/internal/graph"
)

// TestTilingStashFollowsLoad: the stash hands a returned tiling to the next
// run, never holds more spares than runs in flight plus one, and lets go of
// the rest as the load falls.
func TestTilingStashFollowsLoad(t *testing.T) {
	var s tilingStash
	g := testGraph()

	a := s.get()
	a.Rebuild(g, 64)
	s.put(a)
	if got := s.get(); got != a {
		t.Error("a serial run did not get the previous run's tiling back")
	}
	s.put(a)

	// Four runs at once, finishing one after another.
	runs := []*graph.Tiling{s.get(), s.get(), s.get(), s.get()}
	if runs[0] != a || runs[1] == a || s.running != 4 || len(s.spare) != 0 {
		t.Fatalf("after four gets: running %d, %d spares", s.running, len(s.spare))
	}
	for i, r := range runs {
		s.put(r)
		if len(s.spare) > s.running+1 {
			t.Errorf("after %d puts: %d spares with %d runs in flight", i+1, len(s.spare), s.running)
		}
	}
	if s.running != 0 || len(s.spare) != 1 {
		t.Errorf("idle: running %d with %d spares, want 0 and 1", s.running, len(s.spare))
	}

	// Two workers taking job after job: each put is followed by a get, and
	// no run has to start from an empty tiling.
	x, y := s.get(), s.get()
	for i := 0; i < 5; i++ {
		s.put(x)
		if got := s.get(); got != x {
			t.Fatalf("round %d: worker did not get its tiling back", i)
		}
		s.put(y)
		if got := s.get(); got != y {
			t.Fatalf("round %d: worker did not get its tiling back", i)
		}
	}
}
