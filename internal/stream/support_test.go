package stream

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"piccolo/internal/algorithms"
	"piccolo/internal/engine"
	"piccolo/internal/graph"
	"piccolo/internal/obs"
)

// The support-growth repair suite (DESIGN.md §10 "Support-growth repair"):
// every repaired kcore result is compared bit for bit with
// algorithms.RunReference on the materialized graph, and the state the
// repair keeps between versions — support and the engine's in-degrees — with
// a recount.

// kcoreQuery runs a traced kcore query at threshold k, requires its
// properties to equal the reference's on refG, audits the kept state, and
// returns how it was served and the "repair" span's attributes (nil unless
// it was a repair).
func kcoreQuery(t *testing.T, d *DynamicEngine, refG *graph.CSR, k uint32) (*algorithms.ReferenceResult, QueryInfo, map[string]any) {
	t.Helper()
	tr := obs.NewTrace()
	res, info, err := d.QueryOpts(context.Background(), "kcore", int64(k), 0, engine.RunOptions{Trace: tr})
	if err != nil {
		t.Fatalf("kcore k=%d: %v", k, err)
	}
	ref := algorithms.RunReference(refG, algorithms.KCore{}, k, engine.DefaultMaxIters)
	for v := range ref.Prop {
		if res.Prop[v] != ref.Prop[v] {
			t.Fatalf("kcore k=%d (%s serve, version %d): prop[%d] = %#x, reference %#x",
				k, info.Mode, info.Version, v, res.Prop[v], ref.Prop[v])
		}
	}
	auditSupport(t, d, k)
	var span map[string]any
	for _, sp := range tr.Spans() {
		if sp.Name == "repair" {
			span = sp.Attrs
		}
	}
	if (span != nil) != (info.Mode == "incremental") {
		t.Fatalf("kcore k=%d: mode %q with repair span %v", k, info.Mode, span)
	}
	return res, info, span
}

// auditSupport recounts what the repair maintains incrementally: the
// memoized state's support must equal the member in-edge counts of the
// current overlay, and the engine's in-degrees its in-degrees.
func auditSupport(t *testing.T, d *DynamicEngine, k uint32) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.indeg != nil && !slices.Equal(d.indeg, d.ov.InEdgeCounts(nil)) {
		t.Fatalf("k=%d: in-degrees drifted from a recount", k)
	}
	st := d.states[stateKey{kernel: "kcore", src: k}]
	if st == nil || st.support == nil {
		return
	}
	if st.version != d.ov.Version() {
		t.Fatalf("k=%d: state at version %d, overlay at %d", k, st.version, d.ov.Version())
	}
	want := d.ov.InEdgeCounts(func(u uint32) bool { return st.prop[u]&1 == 1 })
	for v := range want {
		if st.support[v] != want[v] {
			t.Fatalf("k=%d: support[%d] = %d, recount %d", k, v, st.support[v], want[v])
		}
	}
}

// adversarialBatch draws n random edges and adds, from the member set of the
// last result, the shapes the seed rule exists for: a two-cycle and a
// (doubled) self-loop among non-members, a multi-edge from a member into a
// non-member, and a non-member → member edge.
func adversarialBatch(rng *rand.Rand, prop []uint64, n int) []EdgeUpdate {
	v := uint32(len(prop))
	batch := randomBatch(rng, v, n)
	var in, out []uint32
	for u, p := range prop {
		if p&1 == 1 {
			in = append(in, uint32(u))
		} else {
			out = append(out, uint32(u))
		}
	}
	pick := func(set []uint32) uint32 { return set[rng.Intn(len(set))] }
	edge := func(s, t uint32) { batch = append(batch, EdgeUpdate{Src: s, Dst: t, Weight: uint8(1 + rng.Intn(255))}) }
	if len(out) > 0 {
		a, b, c := pick(out), pick(out), pick(out)
		edge(a, b)
		edge(b, a)
		edge(c, c)
		edge(c, c)
		if len(in) > 0 {
			x := pick(out)
			for i := rng.Intn(4); i >= 0; i-- {
				edge(pick(in), x)
			}
			m := pick(in)
			edge(m, x)
			edge(m, x)
			edge(pick(out), pick(in))
		}
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

func maxInDegree(g *graph.CSR) uint32 {
	in := make([]uint32, g.V)
	var best uint32
	for _, v := range g.Col {
		in[v]++
		best = max(best, in[v])
	}
	return best
}

// TestSupportRepairDifferential: three graph families × thresholds from 0
// to above the maximum in-degree × adversarial batches, every result equal
// to the reference and the kept state equal to a recount. At the default
// budget a cascade on these few-hundred-vertex graphs may be fat and fall
// back; with a budget of 4·E (a repair walks a candidate's row at most three
// times) every query after the first must be a repair.
func TestSupportRepairDifferential(t *testing.T) {
	var joined, peeled uint64
	for _, base := range testGraphs() {
		for _, k := range []uint32{0, 1, 2, 3, 5, maxInDegree(base) + 1} {
			for _, frac := range []float64{0, 4} {
				t.Run(fmt.Sprintf("%s/k%d/fat%g", base.Name, k, frac), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(base.V)*7 + int64(k)))
					d := New(base, Config{Workers: 2, FatFraction: frac})
					edges := base.Edges()
					res, info, span := kcoreQuery(t, d, base, k)
					if info.Mode != "full" {
						t.Fatalf("first query mode %q, want full", info.Mode)
					}
					for round := 0; round < 12; round++ {
						// Some rounds put several versions between two queries.
						for n := 1 + round%3; n > 0; n-- {
							batch := adversarialBatch(rng, res.Prop, 1+rng.Intn(6))
							if _, err := d.ApplyUpdates(batch); err != nil {
								t.Fatal(err)
							}
							edges = append(edges, asEdges(batch)...)
						}
						refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
						res, info, span = kcoreQuery(t, d, refG, k)
						if frac > 0 && info.Mode != "incremental" {
							t.Fatalf("round %d: mode %q, want incremental", round, info.Mode)
						}
						if span != nil {
							joined += span["joined"].(uint64)
							peeled += span["peeled"].(uint64)
						}
					}
				})
			}
		}
	}
	if joined == 0 || peeled == 0 {
		t.Fatalf("suite joined %d vertices and peeled %d back: want both paths exercised", joined, peeled)
	}
}

// TestSupportRepairShapes walks hand-built cases through the repair and pins
// what the span reports: a cycle closed between two non-members, a self-loop,
// candidates that are peeled back, a cascade through old edges, and a
// threshold nobody can meet.
func TestSupportRepairShapes(t *testing.T) {
	type want struct{ candidates, joined, peeled int }
	for _, c := range []struct {
		name  string
		v     uint32
		k     uint32
		base  []graph.Edge
		batch []EdgeUpdate
		want  want
	}{
		// 0→1 supports nobody (0 has no in-edge); 1→0 closes the cycle.
		// Neither end of the new edge was a member.
		{"dead-dead cycle", 3, 1, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}},
			[]EdgeUpdate{{Src: 1, Dst: 0, Weight: 1}}, want{2, 2, 0}},
		{"self-loop", 3, 1, nil,
			[]EdgeUpdate{{Src: 2, Dst: 2, Weight: 1}}, want{1, 1, 0}},
		{"doubled self-loop at k=2", 3, 2, nil,
			[]EdgeUpdate{{Src: 2, Dst: 2, Weight: 1}, {Src: 2, Dst: 2, Weight: 9}}, want{1, 1, 0}},
		// 1 gets in-degree 2 but both edges come from 0, which nothing
		// supports: candidate, then peeled.
		{"peeled back", 3, 2, nil,
			[]EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}}, want{1, 0, 1}},
		// 0⇄1, doubled, are the members at k=2; 2 has one in-edge from 0 and
		// 3 two from 2. The new 1→2 lets 2 join, and 3 follows through edges
		// that were there all along.
		{"cascade through old edges", 4, 2,
			[]graph.Edge{
				{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 1},
				{Src: 1, Dst: 0, Weight: 1}, {Src: 1, Dst: 0, Weight: 1},
				{Src: 0, Dst: 2, Weight: 1},
				{Src: 2, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
			},
			[]EdgeUpdate{{Src: 1, Dst: 2, Weight: 1}}, want{2, 2, 0}},
		{"threshold out of reach", 3, 7, nil,
			[]EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}}, want{0, 0, 0}},
		{"threshold zero", 3, 0, nil,
			[]EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}, want{0, 0, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := graph.FromEdges("shape", c.v, slices.Clone(c.base))
			d := New(base, Config{FatFraction: 1e6}) // tiny graphs: E/4 is no budget at all
			kcoreQuery(t, d, base, c.k)
			if _, err := d.ApplyUpdates(c.batch); err != nil {
				t.Fatal(err)
			}
			refG := graph.FromEdges("shape", c.v, append(slices.Clone(c.base), asEdges(c.batch)...))
			_, info, span := kcoreQuery(t, d, refG, c.k)
			if info.Mode != "incremental" {
				t.Fatalf("mode %q, want incremental", info.Mode)
			}
			got := want{span["candidates"].(int), int(span["joined"].(uint64)), int(span["peeled"].(uint64))}
			if got != c.want {
				t.Fatalf("repair span %v: (candidates, joined, peeled) = %+v, want %+v", span, got, c.want)
			}
			if span["kernel"] != "kcore" || span["touched"] != span["joined"] || span["edge_visits"].(uint64) != info.RepairEdges {
				t.Fatalf("repair span %v inconsistent with info %+v", span, info)
			}
		})
	}
}

// kcoreStream builds an engine over base with a converged kcore state at k
// and returns a step function that applies one adversarial batch and
// reports the reference graph after it. Callers that pin "incremental" pass
// FatFraction 4: on a few hundred vertices a cascade can exceed E/4.
func kcoreStream(t *testing.T, base *graph.CSR, cfg Config, k uint32, seed int64) (*DynamicEngine, func() *graph.CSR) {
	t.Helper()
	d := New(base, cfg)
	rng := rand.New(rand.NewSource(seed))
	edges := base.Edges()
	res, _, _ := kcoreQuery(t, d, base, k)
	return d, func() *graph.CSR {
		batch := adversarialBatch(rng, res.Prop, 6)
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, asEdges(batch)...)
		return graph.FromEdges(base.Name, base.V, slices.Clone(edges))
	}
}

// TestSupportRepairFatAndDisabled: a budget no repair fits in, and repair
// switched off, both serve the full run's bits — and neither leaves repair
// state behind (a fat abort drops the half-advanced support with the state;
// the full run's fresh state has none yet).
func TestSupportRepairFatAndDisabled(t *testing.T) {
	base := testGraphs()[0]
	for name, frac := range map[string]float64{"fat": 1e-9, "disabled": -1} {
		t.Run(name, func(t *testing.T) {
			d, step := kcoreStream(t, base, Config{Workers: 2, FatFraction: frac}, 3, 17)
			for round := 0; round < 4; round++ {
				refG := step()
				if _, info, _ := kcoreQuery(t, d, refG, 3); info.Mode != "full" {
					t.Fatalf("round %d: mode %q, want full", round, info.Mode)
				}
				if st := d.states[stateKey{kernel: "kcore", src: 3}]; st == nil || st.support != nil || st.version != uint64(round+1) {
					t.Fatalf("round %d: state %+v, want a fresh one without support", round, st)
				}
			}
			st := d.Stats()
			if st.IncrementalRepairs != 0 {
				t.Fatalf("stats %+v: a repair completed", st)
			}
			if wantAborts := map[string]uint64{"fat": 4, "disabled": 0}[name]; st.RepairAborts != wantAborts {
				t.Fatalf("stats %+v: %d aborts, want %d", st, st.RepairAborts, wantAborts)
			}
			// A log longer than the budget is refused on entry: repeated fat
			// aborts never pay the O(V+E) in-edge counts on top of the full run.
			if d.indeg != nil || st.RepairEdges != 0 {
				t.Fatalf("in-degrees built: %v, repair edges %d — a doomed repair did work", d.indeg != nil, st.RepairEdges)
			}
		})
	}
}

// TestSupportRepairFallbacks: a state the replay log no longer reaches takes
// the full path; an explicit iteration cap takes the full path, matches the
// reference at that cap, and neither uses nor replaces the memoized state.
func TestSupportRepairFallbacks(t *testing.T) {
	base := graph.Uniform("small", 64, 3, 21)
	d, step := kcoreStream(t, base, Config{FatFraction: 4}, 2, 29)
	var refG *graph.CSR
	for i := 0; i < maxLogBatches+1; i++ {
		refG = step()
	}
	if _, info, _ := kcoreQuery(t, d, refG, 2); info.Mode != "full" {
		t.Fatalf("past the log's reach: mode %q, want full", info.Mode)
	}
	refG = step()
	before := d.states[stateKey{kernel: "kcore", src: 2}]
	res, info, err := d.Query("kcore", 2, 1)
	if err != nil || info.Mode != "full" {
		t.Fatalf("capped query: mode %q, err %v, want full", info.Mode, err)
	}
	ref := algorithms.RunReference(refG, algorithms.KCore{}, 2, 1)
	if !slices.Equal(res.Prop, ref.Prop) {
		t.Fatal("capped query differs from the reference at the same cap")
	}
	if after := d.states[stateKey{kernel: "kcore", src: 2}]; after != before || after.version != info.Version-1 {
		t.Fatalf("capped query touched the memoized state (%p → %p, version %d)", before, after, after.version)
	}
	if _, info, _ := kcoreQuery(t, d, refG, 2); info.Mode != "incremental" {
		t.Fatalf("after the capped query: mode %q, want incremental", info.Mode)
	}
}

// TestSupportRepairCancel cancels a repair at each of its checkpoints: every
// canceled attempt returns the context error without properties and drops
// the state, and the query after it serves the reference bits.
func TestSupportRepairCancel(t *testing.T) {
	base := testGraphs()[0]
	const k = 2 // the batch's doubled self-loop joins, so the commit checkpoint is reached
	sawCancel := map[int]bool{}
	for n := int64(0); n < 5; n++ {
		d, step := kcoreStream(t, base, Config{FatFraction: 4}, k, 31)
		refG := step()
		res, info, err := d.QueryCtx(newCountdown(n), "kcore", k, 0)
		if err == nil {
			// Past the last checkpoint this batch reaches: a completed repair.
			if info.Mode != "incremental" {
				t.Fatalf("n=%d: mode %q, want incremental", n, info.Mode)
			}
			kcoreQuery(t, d, refG, k) // cached, and still the reference bits
			continue
		}
		if err != context.Canceled || res == nil || res.Prop != nil || info.Mode != "incremental" {
			t.Fatalf("n=%d: res %+v info %+v err %v, want a canceled repair without properties", n, res, info, err)
		}
		sawCancel[res.Iterations] = true
		if res.Iterations == 0 && (d.indeg != nil || res.EdgeVisits != 0) {
			t.Fatal("a repair canceled on entry still counted in-edges")
		}
		if st := d.states[stateKey{kernel: "kcore", src: k}]; st != nil {
			t.Fatalf("n=%d: canceled repair left its state behind", n)
		}
		if _, info, _ := kcoreQuery(t, d, refG, k); info.Mode != "full" {
			t.Fatalf("n=%d: query after a canceled repair served %q, want full", n, info.Mode)
		}
		if _, info, _ := kcoreQuery(t, d, step(), k); info.Mode != "incremental" {
			t.Fatalf("n=%d: repairs did not resume (%q)", n, info.Mode)
		}
	}
	if len(sawCancel) != 4 {
		t.Fatalf("canceled after passes %v, want the entry check (0) and all three checkpoints", sawCancel)
	}
}

// TestSupportRepairAcrossCompactAndRestore: compaction swaps the overlay's
// base under the kept counts, and a WAL-restored engine starts with deltas it
// never saw applied; repairs stay exact through both.
func TestSupportRepairAcrossCompactAndRestore(t *testing.T) {
	base := testGraphs()[2]
	t.Run("compact", func(t *testing.T) {
		d, step := kcoreStream(t, base, Config{CompactThreshold: 8, FatFraction: 4}, 2, 37)
		for round := 0; round < 6; round++ {
			if _, info, _ := kcoreQuery(t, d, step(), 2); info.Mode != "incremental" {
				t.Fatalf("round %d: mode %q, want incremental", round, info.Mode)
			}
		}
		if st := d.Stats(); st.Compactions < 2 {
			t.Fatalf("stats %+v: want several compactions between repairs", st)
		}
	})
	t.Run("restore", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		var history []EdgeUpdate
		for i := 0; i < 5; i++ {
			history = append(history, randomBatch(rng, base.V, 4)...)
		}
		d, err := NewRestored(base, Config{FatFraction: 4}, &Recovered{Version: 5, History: history})
		if err != nil {
			t.Fatal(err)
		}
		edges := append(base.Edges(), asEdges(history)...)
		refG := graph.FromEdges(base.Name, base.V, slices.Clone(edges))
		res, info, _ := kcoreQuery(t, d, refG, 2)
		if info.Mode != "full" || info.Version != 5 {
			t.Fatalf("first query on a restored engine: %+v, want full at version 5", info)
		}
		for round := 0; round < 3; round++ {
			batch := adversarialBatch(rng, res.Prop, 4)
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
			refG = graph.FromEdges(base.Name, base.V, slices.Clone(edges))
			if res, info, _ = kcoreQuery(t, d, refG, 2); info.Mode != "incremental" {
				t.Fatalf("round %d: mode %q, want incremental", round, info.Mode)
			}
		}
	})
}

// TestLockWaitStats: a query that finds the engine's mutex held is counted,
// with the time it waited; uncontended calls are not.
func TestLockWaitStats(t *testing.T) {
	d := New(testGraphs()[0], Config{})
	if _, err := d.ApplyUpdates([]EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Query("bfs", -1, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.LockWaits != 0 || st.LockWaitNs != 0 {
		t.Fatalf("stats %+v: uncontended calls counted as waits", st)
	}
	// Hold the mutex while a call starts, for longer each time until the
	// call has reached lock() before the release — there is no event to wait
	// on for "blocked on a mutex".
	contend := func(name string, call func() error) {
		before := d.Stats()
		for hold := time.Millisecond; ; hold *= 2 {
			if hold > 2*time.Second {
				t.Fatalf("%s: never counted as a waiter", name)
			}
			d.mu.Lock()
			done := make(chan error, 1)
			go func() { done <- call() }()
			time.Sleep(hold)
			d.mu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.LockWaits > before.LockWaits {
				if st.LockWaitNs <= before.LockWaitNs {
					t.Fatalf("%s: stats %+v: a wait with no time", name, st)
				}
				return
			}
		}
	}
	contend("query", func() error { _, _, err := d.Query("bfs", -1, 0); return err })
	contend("update", func() error {
		_, err := d.ApplyUpdates([]EdgeUpdate{{Src: 2, Dst: 3, Weight: 1}})
		return err
	})
}
