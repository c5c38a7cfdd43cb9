package graph

import "testing"

func TestDatasets(t *testing.T) {
	for _, d := range RealWorld() {
		g := d.Build(ScaleTiny)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if g.Name != d.Name {
			t.Errorf("built graph named %q, want %q", g.Name, d.Name)
		}
		if g.E() == 0 {
			t.Errorf("%s: empty", d.Name)
		}
	}
	for _, d := range Synthetic() {
		g := d.Build(ScaleTiny)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestDatasetRelativeShapes(t *testing.T) {
	// The proxies must preserve the paper's qualitative dataset properties.
	byName := map[string]*CSR{}
	for _, d := range RealWorld() {
		byName[d.Name] = d.Build(ScaleTiny)
	}
	if byName["UU"].AvgDegree() > 4 {
		t.Errorf("UU proxy avg degree %.1f, want ~3 (sparse)", byName["UU"].AvgDegree())
	}
	if byName["TW"].AvgDegree() < byName["SW"].AvgDegree() {
		t.Error("TW proxy should be denser than SW")
	}
	if byName["FS"].AvgDegree() < 2*byName["UU"].AvgDegree() {
		t.Error("FS proxy should be much denser than UU")
	}
}

func TestDatasetScaleOrdering(t *testing.T) {
	d, err := ByName("SW")
	if err != nil {
		t.Fatal(err)
	}
	tiny, small := d.Build(ScaleTiny), d.Build(ScaleSmall)
	if tiny.V >= small.V {
		t.Errorf("tiny V %d not smaller than small V %d", tiny.V, small.V)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestByNameAllocatesNothing keeps the dataset lookup off the allocator: it
// runs once per runner query (Runner.Graph). The table is built once, a known
// name costs a scan, and an unknown one costs only its error value.
func TestByNameAllocatesNothing(t *testing.T) {
	for _, d := range append(RealWorld(), Synthetic()...) {
		got, err := ByName(d.Name)
		if err != nil || got.Name != d.Name || got.Brief != d.Brief {
			t.Fatalf("ByName(%q) = %+v, %v", d.Name, got, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("KN28"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ByName of a known dataset allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := lookup("NOPE"); ok {
			t.Fatal("unknown dataset found")
		}
	}); n != 0 {
		t.Errorf("looking up an unknown dataset allocates %v times per call, want 0", n)
	}
}

func TestCapacityFactor(t *testing.T) {
	if f := ScaleSmall.CapacityFactor(); f != 1 {
		t.Errorf("small factor %v, want 1", f)
	}
	if f := ScaleTiny.CapacityFactor(); f != 0.125 {
		t.Errorf("tiny factor %v, want 1/8", f)
	}
	if f := ScaleMedium.CapacityFactor(); f != 4 {
		t.Errorf("medium factor %v, want 4", f)
	}
}

func TestHighestDegreeVertex(t *testing.T) {
	g := FromEdges("h", 5, []Edge{{2, 0, 1}, {2, 1, 1}, {2, 3, 1}, {0, 1, 1}})
	if got, ok := HighestDegreeVertex(g); !ok || got != 2 {
		t.Errorf("HighestDegreeVertex = %d, want 2", got)
	}
}
