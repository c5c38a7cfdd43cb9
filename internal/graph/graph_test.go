package graph

import (
	"testing"
	"testing/quick"
)

func sampleEdges() []Edge {
	return []Edge{
		{0, 1, 5}, {0, 2, 7}, {1, 2, 1}, {2, 0, 3}, {2, 3, 9}, {3, 3, 2},
	}
}

func TestFromEdgesBuildsValidCSR(t *testing.T) {
	g := FromEdges("sample", 4, sampleEdges())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.E() != 6 {
		t.Errorf("E = %d, want 6", g.E())
	}
	if g.OutDeg(0) != 2 || g.OutDeg(1) != 1 || g.OutDeg(2) != 2 || g.OutDeg(3) != 1 {
		t.Errorf("degrees wrong: %d %d %d %d", g.OutDeg(0), g.OutDeg(1), g.OutDeg(2), g.OutDeg(3))
	}
	dsts, ws := g.Neighbors(0)
	if len(dsts) != 2 || dsts[0] != 1 || dsts[1] != 2 || ws[0] != 5 || ws[1] != 7 {
		t.Errorf("neighbors of 0: %v %v", dsts, ws)
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %v, want 2", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := Kronecker("k", 8, 4, 1)
	g2 := FromEdges(g.Name, g.V, g.Edges())
	if g2.E() != g.E() {
		t.Fatalf("edge count changed: %d vs %d", g2.E(), g.E())
	}
	for u := uint32(0); u < g.V; u++ {
		a, _ := g.Neighbors(u)
		b, _ := g2.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbor %d changed", u, i)
			}
		}
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	gens := map[string]*CSR{
		"uniform": Uniform("u", 1000, 4, 7),
		"kron":    Kronecker("k", 10, 8, 7),
		"ws":      WattsStrogatz("w", 1000, 5, 0.1, 7),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.E() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
	// Deterministic for a fixed seed.
	a, b := Kronecker("k", 9, 4, 42), Kronecker("k", 9, 4, 42)
	if a.E() != b.E() {
		t.Fatal("Kronecker not deterministic")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("Kronecker not deterministic in edges")
		}
	}
}

func TestWattsStrogatzDegree(t *testing.T) {
	g := WattsStrogatz("w", 500, 5, 0.1, 3)
	if g.E() != 2500 {
		t.Errorf("E = %d, want exactly v*k = 2500", g.E())
	}
	for u := uint32(0); u < g.V; u++ {
		if g.OutDeg(u) != 5 {
			t.Errorf("vertex %d out-degree %d, want 5", u, g.OutDeg(u))
			break
		}
	}
}

func TestKroneckerPowerLaw(t *testing.T) {
	g := Kronecker("k", 12, 8, 9)
	// Power-law: max degree far above average.
	if float64(g.MaxDegree()) < 8*g.AvgDegree() {
		t.Errorf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestAssignRandomWeights(t *testing.T) {
	g := Uniform("u", 200, 4, 5)
	g.AssignRandomWeights(99)
	for i, w := range g.Weight {
		if w == 0 {
			t.Fatalf("weight %d is zero", i)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := Kronecker("k", 8, 4, 3)
	perm := ShufflePerm(g.V, 17)
	rg, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	if rg.E() != g.E() {
		t.Fatalf("edge count changed: %d vs %d", rg.E(), g.E())
	}
	// Degree multiset must be preserved under relabeling.
	for u := uint32(0); u < g.V; u++ {
		if g.OutDeg(u) != rg.OutDeg(perm[u]) {
			t.Fatalf("degree of %d (%d) != degree of image %d (%d)",
				u, g.OutDeg(u), perm[u], rg.OutDeg(perm[u]))
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := Uniform("u", 10, 2, 1)
	if _, err := g.Relabel([]uint32{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	bad := make([]uint32, g.V)
	for i := range bad {
		bad[i] = 0 // not a permutation
	}
	if _, err := g.Relabel(bad); err == nil {
		t.Error("non-bijective permutation accepted")
	}
}

func TestBFSOrderPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := Kronecker("k", 7, 3, seed)
		perm := BFSOrderPerm(g)
		seen := make([]bool, g.V)
		for _, p := range perm {
			if p >= g.V || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestShufflePermIsPermutation(t *testing.T) {
	perm := ShufflePerm(1000, 4)
	seen := make([]bool, 1000)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("duplicate in ShufflePerm")
		}
		seen[p] = true
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Uniform("u", 20, 2, 1)
	g.Col[0] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Error("out-of-range destination not caught")
	}
	g = Uniform("u", 20, 2, 1)
	g.RowPtr[1] = g.RowPtr[2] + 1
	if err := g.Validate(); err == nil {
		t.Error("non-monotone rowptr not caught")
	}
	g = Uniform("u", 20, 2, 1)
	g.RowPtr = g.RowPtr[:len(g.RowPtr)-1]
	if err := g.Validate(); err == nil {
		t.Error("short rowptr not caught")
	}
}
