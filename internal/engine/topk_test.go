package engine

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"piccolo/internal/algorithms"
)

// unreached is the property word the test descriptors exclude from ranking.
const unreached = math.MaxUint64

// scoreDescriptor ranks property words as float64 bit patterns, excluding the
// unreached sentinel.
func scoreDescriptor(descending bool) algorithms.Descriptor {
	return algorithms.Descriptor{Name: "score-test", Rank: algorithms.Ranking{
		Descending: descending,
		Score: func(p uint64) (float64, bool) {
			return math.Float64frombits(p), p != unreached
		},
	}}
}

// sortedTop is the sort-everything oracle: every candidate ordered by (score
// in the ranking's direction, then lower vertex ID), cut at k.
func sortedTop(cands []VertexScore, descending bool, k int) []VertexScore {
	out := append([]VertexScore(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return (out[i].Score > out[j].Score) == descending
		}
		return out[i].Vertex < out[j].Vertex
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameRanking compares rankings entry by entry on the score's bits, so NaN
// entries compare equal to themselves.
func sameRanking(a, b []VertexScore) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vertex != b[i].Vertex || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestTopKRankedOracle checks the selection heap — and the admits shortcut in
// front of it — against a full sort on random vectors with heavy score ties
// and unreached sentinels, in both directions, for k from 0 past the vector
// length. With NaN scores in the vector there is no total order to sort by,
// so those rounds pin the other half of the contract: the shortcut rejects
// exactly the candidates add would, so feeding every candidate through add
// (what TopKRanked did before the shortcut) gives the same ranking.
func TestTopKRankedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(300)
		withNaN := round%4 == 3
		prop := make([]uint64, n)
		for v := range prop {
			switch r := rng.Intn(10); {
			case r == 0:
				prop[v] = unreached
			case r == 1 && withNaN:
				prop[v] = math.Float64bits(math.NaN())
			default:
				prop[v] = math.Float64bits(float64(rng.Intn(6))) // few distinct scores: mostly ties
			}
		}
		for _, descending := range []bool{false, true} {
			d := scoreDescriptor(descending)
			var cands []VertexScore
			for v, p := range prop {
				if s, ok := d.Rank.Score(p); ok {
					cands = append(cands, VertexScore{Vertex: uint32(v), Score: s})
				}
			}
			for _, k := range []int{0, 1, 3, 10, n, n + 5} {
				got, err := TopKRanked(d, prop, k)
				if err != nil {
					t.Fatal(err)
				}
				var want []VertexScore
				if withNaN {
					acc := topAcc{k: k, descending: descending}
					for _, c := range cands {
						acc.add(c)
					}
					want = acc.result()
				} else {
					want = sortedTop(cands, descending, k)
				}
				if !sameRanking(got, want) {
					t.Fatalf("round %d (n=%d, descending=%v, NaN=%v) k=%d:\n got %v\nwant %v",
						round, n, descending, withNaN, k, got, want)
				}
			}
		}
	}
}

// TestTopKRankedByLabelOracle does the same for label rankings: group sizes,
// largest (or smallest) first, ties toward the lower label.
func TestTopKRankedByLabelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 100; round++ {
		n := 1 + rng.Intn(200)
		prop := make([]uint64, n)
		sizes := map[uint32]int{}
		for v := range prop {
			label := uint32(rng.Intn(1 + rng.Intn(n))) // skewed: a few big groups, many of equal size
			prop[v] = uint64(label)
			sizes[label]++
		}
		var cands []VertexScore
		for label, size := range sizes {
			cands = append(cands, VertexScore{Vertex: label, Score: float64(size)})
		}
		for _, descending := range []bool{false, true} {
			d := algorithms.Descriptor{Name: "label-test", Rank: algorithms.Ranking{Descending: descending, ByLabel: true}}
			for _, k := range []int{0, 1, 4, n + 1} {
				got, err := TopKRanked(d, prop, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := sortedTop(cands, descending, k); !sameRanking(got, want) {
					t.Fatalf("round %d (n=%d, descending=%v) k=%d:\n got %v\nwant %v", round, n, descending, k, got, want)
				}
			}
		}
	}
	if _, err := TopKRanked(scoreDescriptor(true), nil, -1); err == nil {
		t.Error("negative k: want an error")
	}
}

// TestTopKPrefixProperty pins what the runner's ranking memo relies on: the
// top-k' is the first k' entries of the top-k, and a ranking shorter than the
// k it was asked for is the whole ranking.
func TestTopKPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := make([]uint64, 500)
	for v := range prop {
		prop[v] = math.Float64bits(float64(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			prop[v] = unreached
		}
	}
	d := scoreDescriptor(true)
	full, err := TopKRanked(d, prop, len(prop))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) >= len(prop) {
		t.Fatalf("ranking holds %d of %d vertices; the sentinels should be excluded", len(full), len(prop))
	}
	for _, k := range []int{1, 7, 100, len(full), len(prop) + 9} {
		got, err := TopKRanked(d, prop, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := full[:min(k, len(full))]; !reflect.DeepEqual(got, want) {
			t.Fatalf("top-%d is not the prefix of the full ranking", k)
		}
	}
}
