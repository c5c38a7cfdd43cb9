package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"
)

var updateDatasets = flag.Bool("update", false, "rewrite testdata/datasets.json from the current generators")

const datasetsPath = "testdata/datasets.json"

// bySrcDst orders s by (src, dst).
func bySrcDst(s []Edge) func(i, j int) bool {
	return func(i, j int) bool {
		if s[i].Src != s[j].Src {
			return s[i].Src < s[j].Src
		}
		return s[i].Dst < s[j].Dst
	}
}

// sortedCSR lays out edges already sorted by (src, dst) as a CSR.
func sortedCSR(name string, v uint32, s []Edge) *CSR {
	g := &CSR{Name: name, V: v, RowPtr: make([]uint64, v+1), Col: make([]uint32, len(s)), Weight: make([]uint8, len(s))}
	for i, e := range s {
		g.RowPtr[e.Src+1]++
		g.Col[i], g.Weight[i] = e.Dst, e.Weight
	}
	for u := uint32(0); u < v; u++ {
		g.RowPtr[u+1] += g.RowPtr[u]
	}
	return g
}

// stableReference is FromEdges' contract spelled out: a stable sort by
// (src, dst), so equal pairs keep their input order.
func stableReference(v uint32, edges []Edge) *CSR {
	s := slices.Clone(edges)
	sort.SliceStable(s, bySrcDst(s))
	return sortedCSR("", v, s)
}

func sameArrays(a, b *CSR) bool {
	return a.V == b.V && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) && slices.Equal(a.Weight, b.Weight)
}

func TestFromEdgesStable(t *testing.T) {
	type edgeList struct {
		v     uint32
		edges []Edge
	}
	cases := map[string]edgeList{
		"v0":         {0, nil},
		"self-loops": {3, []Edge{{2, 2, 1}, {0, 0, 2}, {2, 2, 3}, {2, 1, 4}, {0, 0, 5}, {2, 2, 6}}},
	}
	// Few vertices and up to 255 edges with distinct weights: nearly every
	// edge has duplicates, and any reordering inside a run shows.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := uint32(1 + rng.Intn(8))
		edges := make([]Edge, rng.Intn(256))
		for i := range edges {
			edges[i] = Edge{uint32(rng.Intn(int(v))), uint32(rng.Intn(int(v))), uint8(i + 1)}
		}
		cases[fmt.Sprintf("dense-dup-%d", trial)] = edgeList{v, edges}
	}
	// A 10 000-edge hub row among light rows.
	var hub []Edge
	for i := 0; i < 10000; i++ {
		hub = append(hub, Edge{3, uint32(rng.Intn(64)), uint8(1 + i%255)})
		if i%100 == 0 {
			hub = append(hub, Edge{uint32(rng.Intn(64)), 3, uint8(1 + i%255)})
		}
	}
	cases["hub"] = edgeList{64, hub}

	for name, c := range cases {
		in := slices.Clone(c.edges)
		got := FromEdges(name, c.v, in)
		if want := stableReference(c.v, c.edges); !sameArrays(got, want) {
			t.Errorf("%s: FromEdges differs from the stable (src, dst) sort", name)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !slices.Equal(in, c.edges) {
			t.Errorf("%s: FromEdges modified its input", name)
		}
	}
}

// parentFromEdges is the comparison-sorting builder FromEdges replaced, kept
// to show the replacement moved no RowPtr or Col entry.
func parentFromEdges(name string, v uint32, edges []Edge) *CSR {
	sort.Slice(edges, bySrcDst(edges))
	return sortedCSR(name, v, edges)
}

// parentBuild builds a proxy the way datasets.go does, through
// parentFromEdges: same generator draws, same permutations.
func parentBuild(name string, sc Scale) *CSR {
	relabel := func(g *CSR, perm []uint32) *CSR {
		var edges []Edge
		for _, e := range g.Edges() {
			edges = append(edges, Edge{perm[e.Src], perm[e.Dst], e.Weight})
		}
		return parentFromEdges(name, g.V, edges)
	}
	kron := func(baseScale, edgeFactor int, seed int64) *CSR {
		s := max(baseScale-sc.shift(), 8)
		return parentFromEdges(name, uint32(1)<<s, kroneckerEdges(s, edgeFactor, seed))
	}
	ws := func(base uint32) *CSR {
		v := scaleSize(base>>26<<14, sc)
		return parentFromEdges(name, v, wattsStrogatzEdges(v, 5, 0.1, int64(base)))
	}
	switch name {
	case "UU":
		v := scaleSize(32768, sc)
		return relabel(parentFromEdges(name, v, uniformEdges(v, 3, 11)), ShufflePerm(v, 12))
	case "TW":
		g := kron(14, 36, 21)
		return relabel(g, BFSOrderPerm(g))
	case "SW":
		return kron(14, 12, 31)
	case "FS":
		g := kron(15, 28, 41)
		return relabel(g, ShufflePerm(g.V, 42))
	case "PP":
		return kron(15, 15, 51)
	case "WS26":
		return ws(1 << 26)
	case "WS27":
		return ws(1 << 27)
	}
	var paperScale int
	fmt.Sscanf(name, "KN%d", &paperScale)
	return kron(paperScale-13, 10, int64(paperScale))
}

// proxies builds every dataset proxy at tiny and small once per test binary,
// keyed "NAME@scale".
var proxies = sync.OnceValue(func() map[string]*CSR {
	out := map[string]*CSR{}
	for _, sc := range []Scale{ScaleTiny, ScaleSmall} {
		for _, d := range datasets {
			out[d.Name+"@"+sc.String()] = d.Build(sc)
		}
	}
	return out
})

// TestFromEdgesMatchesParent: for every proxy at tiny and small, the stable
// builder yields the comparison sort's RowPtr and Col exactly, and each
// (src, dst) run holds the same weights; only their order may differ.
func TestFromEdgesMatchesParent(t *testing.T) {
	for _, sc := range []Scale{ScaleTiny, ScaleSmall} {
		for _, d := range datasets {
			key := d.Name + "@" + sc.String()
			got, want := proxies()[key], parentBuild(d.Name, sc)
			if got.V != want.V || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
				t.Errorf("%s: RowPtr or Col differ from the parent builder", key)
				continue
			}
			if u, ok := sameRunWeights(got, want); !ok {
				t.Errorf("%s: a (%d, dst) run holds other weights than the parent's", key, u)
			}
		}
	}
}

// sameRunWeights reports whether every (src, dst) run of a and b, which
// share RowPtr and Col, holds the same multiset of weights; if not, it
// returns the source of the first run that differs.
func sameRunWeights(a, b *CSR) (uint32, bool) {
	for u := uint32(0); u < a.V; u++ {
		hi := a.RowPtr[u+1]
		for i := a.RowPtr[u]; i < hi; {
			j := i + 1
			for j < hi && a.Col[j] == a.Col[i] {
				j++
			}
			wa, wb := slices.Clone(a.Weight[i:j]), slices.Clone(b.Weight[i:j])
			slices.Sort(wa)
			slices.Sort(wb)
			if !slices.Equal(wa, wb) {
				return u, false
			}
			i = j
		}
	}
	return 0, true
}

// csrDigest hashes V, RowPtr, Col and Weight.
func csrDigest(g *CSR) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, g.V)
	binary.Write(h, binary.LittleEndian, g.RowPtr)
	binary.Write(h, binary.LittleEndian, g.Col)
	h.Write(g.Weight)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDatasetDigests pins every proxy's arrays at tiny and small, so a
// generator or builder change fails here, by dataset and scale, instead of
// only through the simulator goldens. Regenerate with
// `go test ./internal/graph -run TestDatasetDigests -update` only when the
// change is intended.
func TestDatasetDigests(t *testing.T) {
	got := map[string]string{}
	for key, g := range proxies() {
		got[key] = csrDigest(g)
	}
	if *updateDatasets {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(datasetsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d graphs)", datasetsPath, len(got))
		return
	}
	data, err := os.ReadFile(datasetsPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", datasetsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d graphs, the proxies are %d", datasetsPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: graph changed: digest %s, pinned %s", key, digest, want[key])
		}
	}
}

var sinkCSR *CSR

// BenchmarkDatasetBuild times each proxy's build at small scale, generator
// and relabeling included, per edge.
func BenchmarkDatasetBuild(b *testing.B) {
	for _, d := range datasets {
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkCSR = d.Build(ScaleSmall)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*sinkCSR.E()), "ns/edge")
		})
	}
}
