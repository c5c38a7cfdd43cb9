package algorithms

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piccolo/internal/graph"
)

// All returns every registered kernel in registration order.
func All() []Kernel {
	ks := make([]Kernel, len(registry.order))
	for i, name := range registry.order {
		ks[i] = registry.byName[name]
	}
	return ks
}

// chain: 0 → 1 → 2 → 3 with weights 5, 3, 7.
func chain() *graph.CSR {
	return graph.FromEdges("chain", 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 5},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 2, Dst: 3, Weight: 7},
	})
}

// diamond: 0→1, 0→2, 1→3, 2→3 with distinct weights.
func diamond() *graph.CSR {
	return graph.FromEdges("diamond", 4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 0, Dst: 2, Weight: 10},
		{Src: 1, Dst: 3, Weight: 4},
		{Src: 2, Dst: 3, Weight: 1},
	})
}

func TestNewAndAll(t *testing.T) {
	wantOrder := []string{"pr", "bfs", "cc", "sssp", "sswp", "kcore", "lp", "ppr"}
	if got := Names(); !slicesEqual(got, wantOrder) {
		t.Fatalf("Names() = %v, want %v (paper kernels first, extras in file order)", got, wantOrder)
	}
	for _, name := range Names() {
		k, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		if k.Descriptor().Name != name {
			t.Errorf("%s: descriptor name %q mismatch", name, k.Descriptor().Name)
		}
	}
	_, err := New("dijkstra")
	if err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("unknown-kernel error %v does not wrap ErrUnknownKernel", err)
	}
	var uk *UnknownKernelError
	if !errors.As(err, &uk) {
		t.Fatalf("unknown-kernel error %T is not *UnknownKernelError", err)
	}
	if uk.Name != "dijkstra" || len(uk.Supported) != len(wantOrder) {
		t.Errorf("UnknownKernelError = %+v", uk)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBFSLevels(t *testing.T) {
	res := RunReference(chain(), BFS{}, 0, 100)
	want := []uint64{0, 1, 2, 3}
	for v, w := range want {
		if res.Prop[v] != w {
			t.Errorf("BFS level[%d] = %d, want %d", v, res.Prop[v], w)
		}
	}
	if res.Iterations != 4 { // 3 propagation rounds + the round discovering no change
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.FromEdges("two", 3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	res := RunReference(g, BFS{}, 0, 100)
	if res.Prop[2] != math.MaxUint64 {
		t.Errorf("unreachable vertex level = %d, want inf", res.Prop[2])
	}
}

func TestSSSPShortestPath(t *testing.T) {
	res := RunReference(diamond(), SSSP{}, 0, 100)
	// 0→1→3 = 6; 0→2→3 = 11 → dist 3 = 6.
	want := []uint64{0, 2, 10, 6}
	for v, w := range want {
		if res.Prop[v] != w {
			t.Errorf("SSSP dist[%d] = %d, want %d", v, res.Prop[v], w)
		}
	}
}

func TestSSWPWidestPath(t *testing.T) {
	res := RunReference(diamond(), SSWP{}, 0, 100)
	// Width 0→1→3 = min(2,4)=2; 0→2→3 = min(10,1)=1 → width 3 = 2.
	if res.Prop[3] != 2 {
		t.Errorf("SSWP width[3] = %d, want 2", res.Prop[3])
	}
	if res.Prop[2] != 10 {
		t.Errorf("SSWP width[2] = %d, want 10", res.Prop[2])
	}
	if res.Prop[0] != math.MaxUint64 {
		t.Errorf("SSWP width[src] = %d, want inf", res.Prop[0])
	}
}

func TestCCComponents(t *testing.T) {
	// Two components: {0,1,2} cycle and {3,4} cycle.
	g := graph.FromEdges("cc", 5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 3},
	})
	res := RunReference(g, CC{}, 0, 100)
	if res.Prop[0] != 0 || res.Prop[1] != 0 || res.Prop[2] != 0 {
		t.Errorf("component A labels: %v", res.Prop[:3])
	}
	if res.Prop[3] != 3 || res.Prop[4] != 3 {
		t.Errorf("component B labels: %v", res.Prop[3:])
	}
}

func TestPageRankProperties(t *testing.T) {
	g := graph.Kronecker("k", 9, 6, 13)
	res := RunReference(g, PageRank{}, 0, 40)
	sum := 0.0
	for _, p := range res.Prop {
		r := math.Float64frombits(p)
		if r < (1-damping)-1e-9 {
			t.Fatalf("rank below teleport floor: %v", r)
		}
		sum += r
	}
	// Sum-to-N formulation: total rank ≈ V (dangling vertices leak a bit,
	// so allow slack below).
	if sum > float64(g.V)*1.01 {
		t.Errorf("rank sum %.2f far above V=%d", sum, g.V)
	}
	if sum < float64(g.V)*0.2 {
		t.Errorf("rank sum %.2f collapsed", sum)
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	// A directed ring: symmetric, every rank must converge to exactly 1.
	const n = 16
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i), Dst: uint32((i + 1) % n), Weight: 1}
	}
	g := graph.FromEdges("ring", n, edges)
	res := RunReference(g, PageRank{}, 0, 200)
	for v, p := range res.Prop {
		if r := math.Float64frombits(p); math.Abs(r-1) > 1e-5 {
			t.Errorf("ring rank[%d] = %v, want 1", v, r)
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Kronecker("k", 7, 4, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x55)) // weights in [1, 255]
		for i := range g.Weight {
			g.Weight[i] = uint8(1 + rng.Intn(255))
		}
		src, _ := graph.HighestDegreeVertex(g)
		res := RunReference(g, SSSP{}, src, 10000)
		want := dijkstra(g, src)
		for v := uint32(0); v < g.V; v++ {
			if res.Prop[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// dijkstra is an independent oracle for SSSP.
func dijkstra(g *graph.CSR, src uint32) []uint64 {
	const inf = math.MaxUint64
	dist := make([]uint64, g.V)
	done := make([]bool, g.V)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		best, bestD := uint32(0), uint64(inf)
		found := false
		for v := uint32(0); v < g.V; v++ {
			if !done[v] && dist[v] < bestD {
				best, bestD, found = v, dist[v], true
			}
		}
		if !found {
			return dist
		}
		done[best] = true
		dsts, ws := g.Neighbors(best)
		for i, v := range dsts {
			if nd := bestD + uint64(ws[i]); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
}

func TestBFSMatchesSimpleBFS(t *testing.T) {
	g := graph.Kronecker("k", 8, 4, 99)
	src, _ := graph.HighestDegreeVertex(g)
	res := RunReference(g, BFS{}, src, 10000)
	// Plain queue BFS oracle.
	want := make([]uint64, g.V)
	for i := range want {
		want[i] = math.MaxUint64
	}
	want[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		dsts, _ := g.Neighbors(u)
		for _, v := range dsts {
			if want[v] == math.MaxUint64 {
				want[v] = want[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := uint32(0); v < g.V; v++ {
		if res.Prop[v] != want[v] {
			t.Fatalf("BFS level[%d] = %d, oracle %d", v, res.Prop[v], want[v])
		}
	}
}

func TestReduceIdentityProperty(t *testing.T) {
	f := func(x uint64) bool {
		for _, k := range All() {
			// The float-summing kernels only satisfy bitwise identity on
			// the non-negative finite domain (laws_test covers that);
			// arbitrary bit patterns include -0.0 and NaNs.
			if k.Reduce(x, k.Identity()) != x && !k.Descriptor().OrderSensitiveReduce {
				return false
			}
			if k.Reduce(x, k.Identity()) != k.Reduce(k.Identity(), x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneApplyIdentityIsNoop(t *testing.T) {
	f := func(x uint64) bool {
		for _, k := range All() {
			if !k.Descriptor().Monotone {
				continue
			}
			if k.Apply(x, k.Identity()) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeVisitAccounting(t *testing.T) {
	g := chain()
	res := RunReference(g, BFS{}, 0, 100)
	// Each vertex activates once; visits = sum of out-degrees of activated
	// vertices = 3 (vertex 3 has no out-edges).
	if res.EdgeVisits != 3 {
		t.Errorf("EdgeVisits = %d, want 3", res.EdgeVisits)
	}
	pr := RunReference(g, PageRank{}, 0, 5)
	if pr.EdgeVisits != uint64(pr.Iterations)*g.E() {
		t.Errorf("PR visits %d != iters × E", pr.EdgeVisits)
	}
}

func TestMaxItersRespected(t *testing.T) {
	g := graph.Kronecker("k", 8, 6, 5)
	res := RunReference(g, PageRank{}, 0, 3)
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want capped at 3", res.Iterations)
	}
}
