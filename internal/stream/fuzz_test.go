package stream

import (
	"slices"
	"testing"

	"piccolo/internal/graph"
)

// FuzzDecodeBatch fuzzes the update-batch wire decoder. Invariants:
// DecodeBatch never panics, every accepted batch is fully validated
// (non-empty, within the cap, weights in [1, 255]) and survives an
// encode→decode round trip unchanged.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`[{"src":1,"dst":2,"weight":7}]`))
	f.Add([]byte(`[{"src":0,"dst":0}]`))
	f.Add([]byte(`[{"src":4294967295,"dst":4294967295,"weight":255},{"src":3,"dst":9,"weight":1}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"src":-1,"dst":2}]`))
	f.Add([]byte(`[{"src":1.5,"dst":2}]`))
	f.Add([]byte(`[{"src":1,"dst":2,"weight":256}]`))
	f.Add([]byte(`[{"src":1,"dst":2,"wieght":3}]`))
	f.Add([]byte(`[{"src":1,"dst":2}] trailing`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[null]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(data, 64)
		if err != nil {
			return // rejected: the invariant we want for malformed input
		}
		if len(batch) == 0 || len(batch) > 64 {
			t.Fatalf("accepted batch of %d edges (cap 64)", len(batch))
		}
		for i, e := range batch {
			if e.Weight == 0 {
				t.Fatalf("accepted zero weight at %d", i)
			}
		}
		rt, err := DecodeBatch(EncodeBatch(batch), 64)
		if err != nil {
			t.Fatalf("re-decoding accepted batch: %v", err)
		}
		if !slices.Equal(rt, batch) {
			t.Fatalf("round trip changed the batch:\n got %+v\nwant %+v", rt, batch)
		}
	})
}

// FuzzWALDecode fuzzes the WAL record decoder — the code path that parses
// whatever bytes a crash left on disk, so it must never panic and never
// accept a record that differs from what AppendWALRecord wrote. Invariants:
// DecodeWALRecord never panics, consumed bytes are positive and within the
// input on accept, and every accepted record survives an encode→decode
// round trip unchanged (so replay is self-consistent).
func FuzzWALDecode(f *testing.F) {
	f.Add(AppendWALRecord(nil, 1, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 7}}))
	f.Add(AppendWALRecord(nil, 42, nil))
	f.Add(AppendWALRecord(nil, 1<<64-1, []EdgeUpdate{
		{Src: 1<<32 - 1, Dst: 1<<32 - 1, Weight: 255},
		{Src: 0, Dst: 0, Weight: 1},
	}))
	two := AppendWALRecord(nil, 1, []EdgeUpdate{{Src: 3, Dst: 4, Weight: 5}})
	f.Add(AppendWALRecord(two, 2, []EdgeUpdate{{Src: 6, Dst: 7, Weight: 8}}))
	whole := AppendWALRecord(nil, 9, []EdgeUpdate{{Src: 10, Dst: 11, Weight: 12}})
	f.Add(whole[:len(whole)-3]) // torn payload
	f.Add(whole[:6])            // torn header
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // oversized length claim

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeWALRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected input but consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted record consumed %d of %d bytes", n, len(data))
		}
		rt, m, err := DecodeWALRecord(AppendWALRecord(nil, rec.Version, rec.Batch))
		if err != nil {
			t.Fatalf("re-decoding accepted record: %v", err)
		}
		if m != n || rt.Version != rec.Version || !slices.Equal(rt.Batch, rec.Batch) {
			t.Fatalf("round trip changed the record:\n got %+v (%d bytes)\nwant %+v (%d bytes)",
				rt, m, rec, n)
		}
	})
}

// FuzzKCoreRepair fuzzes the support-growth repair against the serial
// reference. The input spells a small graph, a threshold and a sequence of
// insertion batches: byte 0 picks V (2..17), byte 1 the threshold k (0..4),
// byte 2 the number of base edges, then (src, dst) byte pairs reduced mod V —
// base edges first, stream edges after — where a 0xFF in the src position
// closes the current batch and queries. Invariants: every query's properties
// equal RunReference on the graph built from all edges so far, every query
// after the first is a repair (the budget is 4·E; a repair walks a candidate's
// row at most three times), and the support and in-degree counts the repair
// keeps equal a recount (kcoreQuery).
func FuzzKCoreRepair(f *testing.F) {
	// dead→dead edge closing a cycle at k=1: base 0→1, insert 1→0.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 0, 0xFF})
	// self-loops, doubled, at k=2; then an edge out of the new member.
	f.Add([]byte{2, 2, 0, 2, 2, 2, 2, 0xFF, 2, 3, 2, 3, 0xFF})
	// candidates peeled back: in-degree without support.
	f.Add([]byte{3, 2, 0, 0, 1, 0, 1, 0xFF, 1, 2, 1, 2, 0xFF})
	// a member two-cycle and a cascade through old edges.
	f.Add([]byte{2, 2, 7, 0, 1, 0, 1, 1, 0, 1, 0, 0, 2, 2, 3, 2, 3, 1, 2, 0xFF})
	// repeated separators (an empty batch is skipped) and a trailing batch.
	f.Add([]byte{9, 3, 4, 1, 2, 2, 3, 3, 1, 1, 1, 0xFF, 0xFF, 4, 1, 5, 1, 6, 1, 0xFF, 1, 4, 0xFF})
	f.Add([]byte{0, 0, 0, 0, 1, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		v := 2 + uint32(data[0])%16
		k := uint32(data[1]) % 5
		nBase := int(data[2]) % 32
		data = data[3:]
		var edges []graph.Edge
		for ; nBase > 0 && len(data) >= 2; nBase-- {
			edges = append(edges, graph.Edge{Src: uint32(data[0]) % v, Dst: uint32(data[1]) % v, Weight: 1})
			data = data[2:]
		}
		base := graph.FromEdges("fuzz", v, slices.Clone(edges))
		d := New(base, Config{Workers: 1, fatFraction: 4})
		kcoreQuery(t, d, base, k)

		var batch []EdgeUpdate
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := d.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, asEdges(batch)...)
			batch = batch[:0]
			refG := graph.FromEdges("fuzz", v, slices.Clone(edges))
			if _, info, _ := kcoreQuery(t, d, refG, k); info.Mode != "incremental" {
				t.Fatalf("version %d served %q, want incremental", info.Version, info.Mode)
			}
		}
		for len(data) > 0 {
			if data[0] == 0xFF {
				flush()
				data = data[1:]
				continue
			}
			if len(data) < 2 {
				break
			}
			batch = append(batch, EdgeUpdate{Src: uint32(data[0]) % v, Dst: uint32(data[1]) % v, Weight: 1})
			data = data[2:]
		}
		flush()
	})
}
