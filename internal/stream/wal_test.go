package stream

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"piccolo/internal/graph"
)

// TestWALRecordRoundTrip pins the record framing: encode → decode restores
// the version and batch exactly and consumes exactly the encoded bytes,
// including the empty batch and extreme field values.
func TestWALRecordRoundTrip(t *testing.T) {
	cases := []WALRecord{
		{Version: 1, Batch: []EdgeUpdate{{Src: 1, Dst: 2, Weight: 7}}},
		{Version: 1<<64 - 1, Batch: []EdgeUpdate{
			{Src: 1<<32 - 1, Dst: 1<<32 - 1, Weight: 255},
			{Src: 0, Dst: 0, Weight: 1},
		}},
		{Version: 42, Batch: nil},
	}
	for _, want := range cases {
		buf := AppendWALRecord(nil, want.Version, want.Batch)
		got, n, err := DecodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if got.Version != want.Version || !slices.Equal(got.Batch, want.Batch) {
			t.Fatalf("round trip changed record:\n got %+v\nwant %+v", got, want)
		}
	}

	// Two records back to back decode in sequence.
	buf := AppendWALRecord(nil, 1, []EdgeUpdate{{Src: 3, Dst: 4, Weight: 9}})
	buf = AppendWALRecord(buf, 2, []EdgeUpdate{{Src: 5, Dst: 6, Weight: 8}})
	r1, n1, err := DecodeWALRecord(buf)
	if err != nil || r1.Version != 1 {
		t.Fatalf("first record: %+v, %v", r1, err)
	}
	r2, n2, err := DecodeWALRecord(buf[n1:])
	if err != nil || r2.Version != 2 || n1+n2 != len(buf) {
		t.Fatalf("second record: %+v, %v (consumed %d+%d of %d)", r2, err, n1, n2, len(buf))
	}
}

// TestWALDecodeRejects pins every torn/corrupt shape the decoder must
// reject: short header, short payload, flipped payload bit (CRC), flipped
// length field, payload inconsistent with its edge count, oversized claim.
func TestWALDecodeRejects(t *testing.T) {
	whole := AppendWALRecord(nil, 7, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}, {Src: 4, Dst: 5, Weight: 6}})

	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := DecodeWALRecord(whole[:cut]); err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte record", cut, len(whole))
		}
	}
	for i := range whole {
		mut := bytes.Clone(whole)
		mut[i] ^= 0x01
		rec, _, err := DecodeWALRecord(mut)
		// A flip may survive only by landing in a field the CRC covers and
		// producing a self-consistent record — impossible for a single bit:
		// payload flips break the CRC, header flips break length/CRC match.
		if err == nil {
			t.Fatalf("accepted record with bit %d flipped: %+v", i, rec)
		}
	}

	huge := make([]byte, 8)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeWALRecord(huge); err == nil {
		t.Fatal("accepted oversized payload claim")
	}
}

// TestWALAppendRecover is the basic durability loop: append N batches,
// close, reopen — the recovered history is the concatenation of every
// batch and the version is N.
func TestWALAppendRecover(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 0 || len(rec.History) != 0 {
		t.Fatalf("fresh dir recovered to %+v", rec)
	}
	rng := rand.New(rand.NewSource(1))
	var want []EdgeUpdate
	for v := uint64(1); v <= 20; v++ {
		batch := randomBatch(rng, 300, 1+rng.Intn(8))
		off, err := w.Append(v, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(off); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 20 || !slices.Equal(rec.History, want) {
		t.Fatalf("recovered version %d, %d edges; want 20, %d", rec.Version, len(rec.History), len(want))
	}
}

// TestWALTornTail kills the log mid-record at every possible byte boundary:
// recovery must keep every whole record before the tear, drop the torn one,
// and leave the log appendable (the next batch lands cleanly and survives
// another recovery). This is the kill -9 contract: at most the unacked
// tail batch is lost.
func TestWALTornTail(t *testing.T) {
	batches := [][]EdgeUpdate{
		{{Src: 1, Dst: 2, Weight: 3}},
		{{Src: 4, Dst: 5, Weight: 6}, {Src: 7, Dst: 8, Weight: 9}},
		{{Src: 10, Dst: 11, Weight: 12}},
	}
	// Build the intact segment once to learn the record boundaries.
	full := []byte(walMagic)
	bounds := []int{len(full)}
	for v, b := range batches {
		full = AppendWALRecord(full, uint64(v+1), b)
		bounds = append(bounds, len(full))
	}

	for cut := len(walMagic); cut < len(full); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wholeRecords := 0
		for bounds[wholeRecords+1] <= cut {
			wholeRecords++
		}
		w, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rec.Version != uint64(wholeRecords) {
			t.Fatalf("cut %d: recovered version %d, want %d", cut, rec.Version, wholeRecords)
		}
		var want []EdgeUpdate
		for _, b := range batches[:wholeRecords] {
			want = append(want, b...)
		}
		if !slices.Equal(rec.History, want) {
			t.Fatalf("cut %d: recovered history %+v, want %+v", cut, rec.History, want)
		}
		// The torn tail was truncated; the next append must survive.
		off, err := w.Append(rec.Version+1, []EdgeUpdate{{Src: 20, Dst: 21, Weight: 22}})
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w.Sync(off); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2, err := OpenWAL(dir, WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if rec2.Version != rec.Version+1 || len(rec2.History) != len(want)+1 {
			t.Fatalf("cut %d: second recovery version %d (%d edges), want %d (%d)",
				cut, rec2.Version, len(rec2.History), rec.Version+1, len(want)+1)
		}
	}
}

// TestWALRotate drives appends past the segment threshold, rotates, and
// checks (a) old segments and checkpoints are gone, (b) recovery from the
// checkpoint plus post-rotate records is exact, (c) a stale .tmp from a
// torn rotate is ignored and cleaned.
func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var history []EdgeUpdate
	version := uint64(0)
	apply := func(n int) {
		version++
		batch := randomBatch(rng, 300, n)
		history = append(history, batch...)
		off, err := w.Append(version, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(off); err != nil {
			t.Fatal(err)
		}
	}
	for !w.SizeExceeded() {
		apply(4)
	}
	if err := w.Rotate(version, history); err != nil {
		t.Fatal(err)
	}
	apply(3)
	apply(5)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, ckpts int
	for _, e := range entries {
		switch {
		case isSegmentName(e.Name()):
			segs++
		case isCkptName(e.Name()):
			ckpts++
		}
	}
	if segs != 1 || ckpts != 1 {
		t.Fatalf("after rotate: %d segments, %d checkpoints; want 1, 1", segs, ckpts)
	}

	// A torn rotate leaves a .tmp; recovery must ignore and remove it.
	if err := os.WriteFile(filepath.Join(dir, ckptName(999)+".tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != version || !slices.Equal(rec.History, history) {
		t.Fatalf("recovered version %d (%d edges), want %d (%d)",
			rec.Version, len(rec.History), version, len(history))
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(999)+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale .tmp survived recovery: %v", err)
	}
}

// TestWALCheckpointFallback corrupts the newest checkpoint and requires
// recovery to fall back to the older one plus the records beyond it.
func TestWALCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	histA := []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}
	histB := append(slices.Clone(histA), EdgeUpdate{Src: 4, Dst: 5, Weight: 6})
	if err := writeCheckpoint(dir, 1, histA, false); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(dir, 2, histB, false); err != nil {
		t.Fatal(err)
	}
	// Segment carrying versions 2 and 3: version 2 must be skipped when
	// checkpoint B is healthy but replayed when B is corrupt.
	seg := []byte(walMagic)
	seg = AppendWALRecord(seg, 2, histB[1:])
	seg = AppendWALRecord(seg, 3, []EdgeUpdate{{Src: 7, Dst: 8, Weight: 9}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	w, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Version != 3 || len(rec.History) != 3 {
		t.Fatalf("healthy: recovered version %d (%d edges), want 3 (3)", rec.Version, len(rec.History))
	}

	// Corrupt checkpoint B's payload: recovery must fall back to A and
	// replay versions 2 and 3 from the segment — same final state.
	bPath := filepath.Join(dir, ckptName(2))
	data, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(bPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err = OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if rec.Version != 3 || len(rec.History) != 3 {
		t.Fatalf("fallback: recovered version %d (%d edges), want 3 (3)", rec.Version, len(rec.History))
	}
}

// TestWALVersionGap pins the safety check: a segment whose next record
// skips a version (possible only under external tampering or a logic bug)
// must fail recovery loudly rather than silently dropping a batch.
func TestWALVersionGap(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(walMagic)
	seg = AppendWALRecord(seg, 1, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}})
	seg = AppendWALRecord(seg, 3, []EdgeUpdate{{Src: 4, Dst: 5, Weight: 6}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALOptions{NoSync: true}); err == nil {
		t.Fatal("recovered across a version gap")
	}
}

// TestWALConcurrentCommit hammers Append+Sync from many goroutines (the
// serve commit path under concurrent /update load, group commit collapsing
// the fsyncs) and verifies recovery sees every acknowledged batch in
// version order.
func TestWALConcurrentCommit(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	var (
		mu      sync.Mutex
		version uint64
		want    = map[uint64][]EdgeUpdate{}
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				batch := []EdgeUpdate{{Src: uint32(g), Dst: uint32(i), Weight: 1}}
				// The runner's per-graph commit lock orders apply+append;
				// model it here.
				mu.Lock()
				version++
				v := version
				want[v] = batch
				off, err := w.Append(v, batch)
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Sync(off); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != goroutines*perG {
		t.Fatalf("recovered version %d, want %d", rec.Version, goroutines*perG)
	}
	var flat []EdgeUpdate
	for v := uint64(1); v <= rec.Version; v++ {
		flat = append(flat, want[v]...)
	}
	if !slices.Equal(rec.History, flat) {
		t.Fatal("recovered history does not match acknowledged batches in version order")
	}
}

// TestWALStickyError pins the failure contract: once the log errors, every
// subsequent operation fails (no batch may be acknowledged after an
// unlogged one, or recovery would hit a version gap).
func TestWALStickyError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.Sync(1); err == nil {
		t.Fatal("sync after close succeeded")
	}
	if err := w.Rotate(1, nil); err == nil {
		t.Fatal("rotate after close succeeded")
	}
}

// TestRestoreBitIdentical is the recovery acceptance criterion: a live
// engine applies batches (with compaction forced mid-stream and queries
// interleaved so repair states exist), its WAL is recovered, and the
// restored engine must answer every kernel with bit-identical properties
// at the same version — even though the restored engine never saw the
// compactions or repairs.
func TestRestoreBitIdentical(t *testing.T) {
	for _, base := range testGraphs() {
		t.Run(base.Name, func(t *testing.T) {
			dir := t.TempDir()
			w, rec, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Version != 0 {
				t.Fatalf("fresh recovery at version %d", rec.Version)
			}
			// Tiny compact threshold forces several compactions in the live
			// engine; the restored engine will take a different compaction
			// trajectory, which must not matter.
			live := New(base, Config{compactThreshold: 32})
			rng := rand.New(rand.NewSource(int64(base.V)))
			var history []EdgeUpdate
			version := uint64(0)
			for b := 0; b < 12; b++ {
				batch := randomBatch(rng, base.V, 1+rng.Intn(16))
				v, err := live.ApplyUpdates(batch)
				if err != nil {
					t.Fatal(err)
				}
				off, err := w.Append(v, batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Sync(off); err != nil {
					t.Fatal(err)
				}
				version = v
				history = append(history, batch...)
				if b == 5 {
					// Interleave queries so the live engine builds repair
					// state, and rotate so recovery crosses a checkpoint.
					for _, kn := range allKernels {
						if _, _, err := live.QueryCtx(context.Background(), kn, -1, 0); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Rotate(version, history); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil { // stands in for kill -9 after last ack
				t.Fatal(err)
			}

			_, rec, err = OpenWAL(dir, WALOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Version != version {
				t.Fatalf("recovered version %d, want %d", rec.Version, version)
			}
			restored, err := NewRestored(base, Config{}, rec)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Version() != version {
				t.Fatalf("restored engine at version %d, want %d", restored.Version(), version)
			}
			for _, kn := range allKernels {
				a, ai, err := live.QueryCtx(context.Background(), kn, -1, 0)
				if err != nil {
					t.Fatal(err)
				}
				b, bi, err := restored.QueryCtx(context.Background(), kn, -1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ai.Version != bi.Version || ai.Edges != bi.Edges {
					t.Fatalf("%s: info mismatch: live %+v, restored %+v", kn, ai, bi)
				}
				if !slices.Equal(a.Prop, b.Prop) {
					for v := range a.Prop {
						if a.Prop[v] != b.Prop[v] {
							t.Fatalf("%s: prop[%d] = %#x live, %#x restored", kn, v, a.Prop[v], b.Prop[v])
						}
					}
				}
			}
			// The restored engine keeps serving: more updates and queries
			// must stay bit-identical to the reference.
			batch := randomBatch(rng, base.V, 8)
			if _, err := restored.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			checkQuery(t, restored, restored.Graph(), "bfs")
		})
	}
}

// TestRestoreValidation pins Overlay.Restore's error paths.
func TestRestoreValidation(t *testing.T) {
	base := graph.Uniform("u", 16, 2, 1)
	cases := []struct {
		name string
		rec  Recovered
	}{
		{"out-of-range", Recovered{Version: 1, History: []EdgeUpdate{{Src: 99, Dst: 0, Weight: 1}}}},
		{"zero-weight", Recovered{Version: 1, History: []EdgeUpdate{{Src: 1, Dst: 2, Weight: 0}}}},
		{"version-zero-with-history", Recovered{Version: 0, History: []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}}},
	}
	for _, c := range cases {
		if _, err := NewRestored(base, Config{}, &c.rec); err == nil {
			t.Errorf("%s: NewRestored accepted %+v", c.name, c.rec)
		}
	}
	d := New(base, Config{})
	if _, err := d.ApplyUpdates([]EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := d.ov.Restore(nil, 5); err == nil {
		t.Error("Restore on a non-fresh overlay succeeded")
	}
}
