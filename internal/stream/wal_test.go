package stream

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
		buf := appendWALRecord(nil, want.Version, want.Batch)
		got, n, err := decodeWALRecord(buf)
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
	buf := appendWALRecord(nil, 1, []EdgeUpdate{{Src: 3, Dst: 4, Weight: 9}})
	buf = appendWALRecord(buf, 2, []EdgeUpdate{{Src: 5, Dst: 6, Weight: 8}})
	r1, n1, err := decodeWALRecord(buf)
	if err != nil || r1.Version != 1 {
		t.Fatalf("first record: %+v, %v", r1, err)
	}
	r2, n2, err := decodeWALRecord(buf[n1:])
	if err != nil || r2.Version != 2 || n1+n2 != len(buf) {
		t.Fatalf("second record: %+v, %v (consumed %d+%d of %d)", r2, err, n1, n2, len(buf))
	}
}

// TestWALDecodeRejects pins every torn/corrupt shape the decoder must
// reject: short header, short payload, flipped payload bit (CRC), flipped
// length field, payload inconsistent with its edge count, oversized claim.
func TestWALDecodeRejects(t *testing.T) {
	whole := appendWALRecord(nil, 7, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}, {Src: 4, Dst: 5, Weight: 6}})

	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := decodeWALRecord(whole[:cut]); err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte record", cut, len(whole))
		}
	}
	for i := range whole {
		mut := bytes.Clone(whole)
		mut[i] ^= 0x01
		rec, _, err := decodeWALRecord(mut)
		// A flip may survive only by landing in a field the CRC covers and
		// producing a self-consistent record — impossible for a single bit:
		// payload flips break the CRC, header flips break length/CRC match.
		if err == nil {
			t.Fatalf("accepted record with bit %d flipped: %+v", i, rec)
		}
	}

	huge := make([]byte, 8)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeWALRecord(huge); err == nil {
		t.Fatal("accepted oversized payload claim")
	}
}

// TestWALAppendRecover is the basic durability loop: append N batches,
// close, reopen — the recovered batches are every batch, in order.
func TestWALAppendRecover(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 {
		t.Fatalf("fresh dir recovered to %+v", rec)
	}
	rng := rand.New(rand.NewSource(1))
	var want [][]EdgeUpdate
	for v := uint64(1); v <= 20; v++ {
		batch := randomBatch(rng, 300, 1+rng.Intn(8))
		off, err := w.Append(v, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(off); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(rec.Batches, want, slices.Equal) {
		t.Fatalf("recovered %d batches, want the 20 appended", len(rec.Batches))
	}
}

// TestWALTornTail kills the log mid-record at every possible byte boundary:
// recovery must keep every whole record before the tear, drop the torn one,
// and leave the log appendable (the next batch lands cleanly and survives
// another recovery). This is the kill -9 contract: at most the unacked
// tail batch is lost. Cuts inside the magic stand for a kill between the
// file's creation and its magic write: the records appended after recovery
// must survive the next one.
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
		full = appendWALRecord(full, uint64(v+1), b)
		bounds = append(bounds, len(full))
	}

	for cut := 0; cut < len(full); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, walFile)
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
		if want := batches[:wholeRecords]; !slices.EqualFunc(rec.Batches, want, slices.Equal) {
			t.Fatalf("cut %d: recovered batches %+v, want %+v", cut, rec.Batches, want)
		}
		// The torn tail was truncated; the next append must survive.
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if fi.Size() != int64(bounds[wholeRecords]) {
			t.Fatalf("cut %d: log is %d bytes, want %d (its last whole record)", cut, fi.Size(), bounds[wholeRecords])
		}
		off, err := w.Append(uint64(wholeRecords)+1, []EdgeUpdate{{Src: 20, Dst: 21, Weight: 22}})
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
		if len(rec2.Batches) != wholeRecords+1 || len(rec2.Batches[wholeRecords]) != 1 {
			t.Fatalf("cut %d: second recovery %+v, want the %d whole records and the appended one",
				cut, rec2.Batches, wholeRecords)
		}
	}
}

// TestWALVersionGap pins the safety check: a log whose next record is not
// its predecessor's version + 1 — it skips a version, repeats one, or does
// not start at 1 (possible only under external tampering or a logic bug) —
// must fail recovery loudly rather than silently dropping or doubling a
// batch.
func TestWALVersionGap(t *testing.T) {
	for _, versions := range [][]uint64{{1, 3}, {1, 1}, {1, 2, 2}, {2}, {0}} {
		dir := t.TempDir()
		seg := []byte(walMagic)
		for i, v := range versions {
			seg = appendWALRecord(seg, v, []EdgeUpdate{{Src: uint32(i), Dst: 2, Weight: 3}})
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, rec, err := OpenWAL(dir, WALOptions{NoSync: true}); err == nil {
			t.Fatalf("versions %v: recovered to %+v", versions, rec)
		}
	}
}

// TestWALStrayFiles: the log is the directory's one file. A file beside it
// — a checkpoint, a second segment or a temp file from an older build —
// fails recovery with an error naming it, and recovery creates nothing
// else.
func TestWALStrayFiles(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != walFile {
		t.Fatalf("fresh log directory holds %v, want only %s", entries, walFile)
	}
	for _, stray := range []string{"checkpoint-0000000000000040.ckpt", "wal-00000002.log", "checkpoint-0000000000000041.ckpt.tmp"} {
		path := filepath.Join(dir, stray)
		if err := os.WriteFile(path, []byte(walMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenWAL(dir, WALOptions{NoSync: true})
		if err == nil || !strings.Contains(err.Error(), stray) {
			t.Errorf("%s beside the log: err = %v, want one naming it", stray, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	// Nor is the log itself rewritten when it is longer than a magic yet
	// does not start with one: it holds bytes no build wrote.
	foreign := appendWALRecord([]byte("NOTAWAL!"), 1, []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}})
	if err := os.WriteFile(filepath.Join(dir, walFile), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALOptions{NoSync: true}); err == nil {
		t.Error("log with a foreign magic opened")
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
	if len(rec.Batches) != goroutines*perG {
		t.Fatalf("recovered version %d, want %d", len(rec.Batches), goroutines*perG)
	}
	for i, b := range rec.Batches {
		if !slices.Equal(b, want[uint64(i)+1]) {
			t.Fatalf("recovered batch %d does not match the one acknowledged at its version", i+1)
		}
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
			w, rec, err := OpenWAL(dir, WALOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Batches) != 0 {
				t.Fatalf("fresh recovery at version %d", len(rec.Batches))
			}
			// Tiny compact threshold forces several compactions in the live
			// engine; the restored engine will take a different compaction
			// trajectory, which must not matter.
			live := New(base, Config{compactThreshold: 32})
			rng := rand.New(rand.NewSource(int64(base.V)))
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
				if b == 5 {
					// Interleave queries so the live engine builds repair
					// state.
					for _, kn := range allKernels {
						if _, _, err := live.QueryCtx(context.Background(), kn, -1, 0); err != nil {
							t.Fatal(err)
						}
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
			if uint64(len(rec.Batches)) != version {
				t.Fatalf("recovered version %d, want %d", len(rec.Batches), version)
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

// TestRestoreValidation: replay is as strict as a live update — a batch the
// update path refuses fails the restore, and the error names its version.
func TestRestoreValidation(t *testing.T) {
	base := graph.Uniform("u", 16, 2, 1)
	good := []EdgeUpdate{{Src: 1, Dst: 2, Weight: 3}}
	for name, bad := range map[string][]EdgeUpdate{
		"out-of-range": {{Src: 99, Dst: 0, Weight: 1}},
		"zero-weight":  {{Src: 1, Dst: 2, Weight: 0}},
		"empty-batch":  {},
	} {
		rec := &Recovered{Batches: [][]EdgeUpdate{good, bad}}
		if _, err := NewRestored(base, Config{}, rec); err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("%s: NewRestored(%+v) = %v, want an error naming version 2", name, rec.Batches, err)
		}
	}
}
