package piccolo

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g := MustDataset("UU", ScaleTiny)
	cfg := Config{System: SystemPiccolo, Kernel: "bfs", Scale: ScaleTiny, Src: -1}
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles")
	}
	if err := Validate(cfg, g, res); err != nil {
		t.Error(err)
	}
}

func TestFacadeDatasets(t *testing.T) {
	if _, err := Dataset("NOPE", ScaleTiny); err == nil {
		t.Error("unknown dataset accepted")
	}
	for _, name := range []string{"UU", "TW", "SW", "FS", "PP"} {
		g, err := Dataset(name, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := GenerateKronecker("k", 8, 4, 1); g.E() == 0 {
		t.Error("kronecker empty")
	}
	if g := GenerateUniform("u", 100, 3, 1); g.E() == 0 {
		t.Error("uniform empty")
	}
	if g := GenerateWattsStrogatz("w", 100, 4, 0.1, 1); g.E() == 0 {
		t.Error("ws empty")
	}
}

// TestLoadGraph: a graph written as a segment loads back bit-identical
// (weighted multi-edge rows included), and a missing path is an error.
func TestLoadGraph(t *testing.T) {
	g := MustDataset("SW", ScaleTiny)
	path := filepath.Join(t.TempDir(), "sw.pseg")
	if err := WriteSegmentFile(g, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("LoadGraph differs from the written graph: %s V=%d E=%d, want %s V=%d E=%d",
			got.Name, got.V, got.E(), g.Name, g.V, g.E())
	}
	if _, err := LoadGraph(filepath.Join(t.TempDir(), "missing.pseg")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeReference(t *testing.T) {
	g := GenerateKronecker("k", 8, 4, 7)
	prop, iters, err := Reference("cc", g, 0, 50)
	if err != nil || iters == 0 || len(prop) != int(g.V) {
		t.Fatalf("reference: %v iters=%d", err, iters)
	}
	if _, _, err := Reference("nope", g, 0, 1); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFacadeSweep(t *testing.T) {
	jobs := []Job{
		{Dataset: "UU", Config: Config{System: SystemPiccolo, Kernel: "bfs", Scale: ScaleTiny, MaxIters: 2, Src: -1}},
		{Dataset: "UU", Config: Config{System: SystemNMP, Kernel: "bfs", Scale: ScaleTiny, MaxIters: 2, Src: -1}},
		{Dataset: "UU", Config: Config{System: SystemPiccolo, Kernel: "bfs", Scale: ScaleTiny, MaxIters: 2, Src: -1}},
	}
	results, err := Sweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Cycles == 0 {
		t.Fatalf("sweep results incomplete: %v", results)
	}
	if results[0] != results[2] {
		t.Error("duplicate job not deduplicated")
	}

	r := NewRunner(2)
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	var s RunnerStats = r.Stats()
	if s.Misses != 2 || s.HitRate() < 0.5 {
		t.Errorf("runner stats = %+v, want 2 misses and hit rate >= 0.5", s)
	}
}

func TestFacadeMemoryPresets(t *testing.T) {
	for _, mc := range []MemoryConfig{DDR4(16), DDR4(8), LPDDR4(), GDDR5(), HBM(), Enhanced(HBM())} {
		if mc.PeakBandwidthGBps() <= 0 {
			t.Errorf("%s: no bandwidth", mc.Name)
		}
	}
	if len(Systems()) != 6 || len(Kernels()) != 8 {
		t.Error("enumerations wrong")
	}
	for i, name := range KernelNames() {
		if Kernels()[i].Name != name {
			t.Errorf("Kernels()[%d].Name = %q, want %q", i, Kernels()[i].Name, name)
		}
	}
	_, err := NewKernel("nope")
	if !errors.Is(err, ErrUnknownKernel) {
		t.Error("unknown kernel: want ErrUnknownKernel")
	}
	var uk *UnknownKernelError
	if !errors.As(err, &uk) {
		t.Error("unknown kernel: want *UnknownKernelError")
	} else if len(uk.Supported) != len(Kernels()) {
		t.Errorf("UnknownKernelError.Supported has %d names, want %d", len(uk.Supported), len(Kernels()))
	}
}

func TestFacadeEngine(t *testing.T) {
	g := GenerateKronecker("kron", 9, 8, 4)
	refProp, refIters, err := Reference("bfs", g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := NewKernel("bfs")
	if err != nil {
		t.Fatal(err)
	}
	res := NewEngine(g, EngineConfig{Workers: 3}).Run(bfs, 0, 100)
	if res.Iterations != refIters {
		t.Fatalf("engine iterations = %d, reference %d", res.Iterations, refIters)
	}
	for v := range refProp {
		if res.Prop[v] != refProp[v] {
			t.Fatalf("engine prop[%d] = %#x, reference %#x", v, res.Prop[v], refProp[v])
		}
	}
	top, err := TopK("bfs", res.Prop, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Score != 0 {
		t.Fatalf("top-k should start at the source (distance 0), got %+v", top)
	}

	// Reusable engine + query path through the shared runner.
	cc, err := NewKernel("cc")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, EngineConfig{Workers: 2})
	k2 := e.Run(cc, 0, 100)
	if k2.Iterations == 0 {
		t.Error("cc on a Kronecker graph should take at least one iteration")
	}
	r := NewRunner(2)
	q := Query{Dataset: "SW", Kernel: "bfs", Scale: ScaleTiny, Src: -1}
	res1, _, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := r.RunQueryInfo(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("repeated query not served from cache")
	}
}
