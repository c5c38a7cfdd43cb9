package engine

import (
	"fmt"
	"sort"

	"piccolo/internal/algorithms"
)

// VertexScore is one ranked vertex in a TopK result.
type VertexScore struct {
	Vertex uint32  `json:"vertex"`
	Score  float64 `json:"score"`
}

// TopK ranks a kernel's converged property array and returns the k most
// interesting vertices. The ordering comes entirely from the registered
// kernel's Descriptor().Rank declaration (direction, per-vertex score or
// label-group sizes, exclusion of unreached vertices) — there is no
// per-kernel dispatch here, so a newly registered kernel is rankable with
// no engine change. An unknown name returns the registry's typed
// *algorithms.UnknownKernelError.
func TopK(kernel string, prop []uint64, k int) ([]VertexScore, error) {
	kn, err := algorithms.New(kernel)
	if err != nil {
		return nil, err
	}
	return TopKRanked(kn.Descriptor(), prop, k)
}

// TopKRanked ranks prop per the descriptor's Rank declaration:
//
//   - Rank.Score maps each property word to a score (ok=false excludes the
//     vertex — unreached, peeled away);
//   - Rank.ByLabel treats properties as group labels and ranks labels by
//     member count (Vertex = the label);
//   - Rank.Descending picks the sort direction.
//
// Ties break toward the lower vertex ID, so the order is a strict total one:
// the top-k' of a property array is the first k' entries of its top-k for
// every k' <= k, which is what lets the runner's query cache keep one
// ranking per result and answer smaller requests with a prefix of it.
// Candidates stream through a size-k selection heap, so the cost is
// O(V log k), not O(V log V) — this runs once per cached result and once
// per uncached one on the serving path.
func TopKRanked(d algorithms.Descriptor, prop []uint64, k int) ([]VertexScore, error) {
	if k < 0 {
		return nil, fmt.Errorf("engine: negative top-k %d", k)
	}
	acc := topAcc{k: k, descending: d.Rank.Descending}
	switch {
	case d.Rank.ByLabel:
		sizes := make([]uint32, len(prop))
		for v, label := range prop {
			if label >= uint64(len(prop)) {
				return nil, fmt.Errorf("engine: %s label %d of vertex %d out of range", d.Name, label, v)
			}
			sizes[label]++
		}
		for label, n := range sizes {
			if n > 0 && acc.admits(float64(n)) {
				acc.add(VertexScore{Vertex: uint32(label), Score: float64(n)})
			}
		}
	case d.Rank.Score != nil:
		for v, p := range prop {
			if s, ok := d.Rank.Score(p); ok && acc.admits(s) {
				acc.add(VertexScore{Vertex: uint32(v), Score: s})
			}
		}
	default:
		// Register rejects rankless descriptors, so only a hand-built
		// Descriptor can reach this.
		return nil, fmt.Errorf("engine: kernel %q declares no top-k ranking", d.Name)
	}
	return acc.result(), nil
}

// topAcc selects the k best candidates with a bounded binary heap whose
// root is the worst entry kept so far.
type topAcc struct {
	k          int
	descending bool
	h          []VertexScore
}

// better reports whether a outranks b.
func (t *topAcc) better(a, b VertexScore) bool {
	if a.Score != b.Score {
		if t.descending {
			return a.Score > b.Score
		}
		return a.Score < b.Score
	}
	return a.Vertex < b.Vertex
}

// admits is the cheap test in front of add for candidates offered in
// ascending vertex order, which both rankings above do: a tie loses to the
// lower IDs already kept, so once the heap is full only a score that
// strictly beats the worst kept one can enter. It rejects exactly what add's
// own comparison would (a NaN on either side compares false in both), and
// spares the losers — all but O(k log V) of the candidates on a typical
// vector — the VertexScore and the call.
func (t *topAcc) admits(score float64) bool {
	if len(t.h) < t.k {
		return true
	}
	if t.k == 0 {
		return false
	}
	if t.descending {
		return score > t.h[0].Score
	}
	return score < t.h[0].Score
}

func (t *topAcc) add(v VertexScore) {
	if t.k == 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, v)
		if len(t.h) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				t.down(i)
			}
		}
		return
	}
	if t.better(v, t.h[0]) {
		t.h[0] = v
		t.down(0)
	}
}

// down restores the heap property below node i (worst kept entry on top).
func (t *topAcc) down(i int) {
	n := len(t.h)
	for {
		w := i
		if l := 2*i + 1; l < n && t.better(t.h[w], t.h[l]) {
			w = l
		}
		if r := 2*i + 2; r < n && t.better(t.h[w], t.h[r]) {
			w = r
		}
		if w == i {
			return
		}
		t.h[i], t.h[w] = t.h[w], t.h[i]
		i = w
	}
}

// result returns the kept entries ranked best first.
func (t *topAcc) result() []VertexScore {
	sort.Slice(t.h, func(i, j int) bool { return t.better(t.h[i], t.h[j]) })
	return t.h
}
