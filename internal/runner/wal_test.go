package runner

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

func walBatch(rng *rand.Rand, v uint32, n int) []stream.EdgeUpdate {
	batch := make([]stream.EdgeUpdate, n)
	for i := range batch {
		batch[i] = stream.EdgeUpdate{
			Src:    uint32(rng.Intn(int(v))),
			Dst:    uint32(rng.Intn(int(v))),
			Weight: uint8(1 + rng.Intn(255)),
		}
	}
	return batch
}

// TestRunnerWALRecovery is the runner-level crash-recovery contract: a
// runner with WAL enabled applies updates to two graphs, a second runner
// replays the same directory, and every recovered graph must be at the
// acknowledged version with bit-identical query results — then keep
// accepting updates as if the restart never happened.
func TestRunnerWALRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))

	r1 := New(2)
	if _, err := r1.EnableWAL(ctx, dir, 2048); err != nil {
		t.Fatal(err)
	}
	if !r1.WALEnabled() {
		t.Fatal("WALEnabled false after EnableWAL")
	}
	gUU, err := r1.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	gPP, err := r1.Graph("PP", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := r1.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, gUU.V, 16)); err != nil {
			t.Fatalf("UU batch %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := r1.ApplyUpdates(ctx, "PP", graph.ScaleTiny, walBatch(rng, gPP.V, 4)); err != nil {
			t.Fatalf("PP batch %d: %v", i, err)
		}
	}
	verUU := r1.GraphVersion("UU", graph.ScaleTiny)
	verPP := r1.GraphVersion("PP", graph.ScaleTiny)
	if verUU != 12 || verPP != 3 {
		t.Fatalf("versions = %d/%d, want 12/3", verUU, verPP)
	}
	want := map[string][]uint64{}
	for _, kernel := range []string{"pr", "bfs", "cc"} {
		res, _, err := r1.RunQueryInfo(ctx, Query{Dataset: "UU", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1})
		if err != nil {
			t.Fatal(err)
		}
		want[kernel] = res.Prop
	}
	if err := r1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	r2 := New(3)
	recs, err := r2.EnableWAL(ctx, dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d graphs, want 2: %+v", len(recs), recs)
	}
	if got := r2.GraphVersion("UU", graph.ScaleTiny); got != verUU {
		t.Fatalf("UU recovered at version %d, want %d", got, verUU)
	}
	if got := r2.GraphVersion("PP", graph.ScaleTiny); got != verPP {
		t.Fatalf("PP recovered at version %d, want %d", got, verPP)
	}
	for kernel, prop := range want {
		res, _, err := r2.RunQueryInfo(ctx, Query{Dataset: "UU", Kernel: kernel, Scale: graph.ScaleTiny, Src: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Prop, prop) {
			t.Fatalf("%s: recovered result differs from pre-restart result", kernel)
		}
	}
	// The recovered runner keeps the version sequence going.
	ver, err := r2.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, gUU.V, 8))
	if err != nil {
		t.Fatal(err)
	}
	if ver != verUU+1 {
		t.Fatalf("post-recovery version = %d, want %d", ver, verUU+1)
	}
	if err := r2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerWALFirstUpdateLazy: a graph never updated before EnableWAL
// gets its log created on first update, not at startup.
func TestRunnerWALFirstUpdateLazy(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r := New(1)
	if _, err := r.EnableWAL(ctx, dir, 0); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("wal dir not empty before any update: %v", entries)
	}
	g, err := r.Graph("SW", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyUpdates(ctx, "SW", graph.ScaleTiny, walBatch(rand.New(rand.NewSource(1)), g.V, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "SW@0")); err != nil {
		t.Fatalf("per-graph wal subdir missing: %v", err)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerWALEnableErrors pins the misuse cases: enabling twice,
// enabling after updates already streamed, and unreplayable directories.
func TestRunnerWALEnableErrors(t *testing.T) {
	ctx := context.Background()

	r := New(1)
	if _, err := r.EnableWAL(ctx, t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableWAL(ctx, t.TempDir(), 0); err == nil {
		t.Error("second EnableWAL accepted")
	}

	r2 := New(1)
	g, err := r2.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rand.New(rand.NewSource(2)), g.V, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.EnableWAL(ctx, t.TempDir(), 0); err == nil {
		t.Error("EnableWAL after unlogged updates accepted (those updates could never be replayed)")
	}

	// A subdirectory that does not parse as DATASET@SCALE fails recovery.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "garbage"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := New(1).EnableWAL(ctx, dir, 0); err == nil {
		t.Error("garbage wal subdir accepted")
	}

	// A well-formed key naming an unknown dataset fails recovery loudly
	// rather than silently dropping a graph's durable history.
	dir2 := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir2, "NOPE@0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := New(1).EnableWAL(ctx, dir2, 0); err == nil {
		t.Error("unknown-dataset wal subdir accepted")
	}
}

// TestRunnerWALPoisoning is the fault-injection test for the commit
// protocol: once the log cannot be written, the graph refuses further
// updates (its memory is ahead of its durable history) while queries keep
// serving.
func TestRunnerWALPoisoning(t *testing.T) {
	ctx := context.Background()
	r := New(1)
	if _, err := r.EnableWAL(ctx, t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	g, err := r.Graph("UU", graph.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := r.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, g.V, 4)); err != nil {
		t.Fatal(err)
	}
	// Sever the log out from under the runner: the next append fails.
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, g.V, 4)); err == nil {
		t.Fatal("update acknowledged with an unwritable log")
	}
	// Sticky: every further update is refused with the poison error.
	_, err = r.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, g.V, 4))
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("poisoned graph accepted an update (err = %v)", err)
	}
	// Queries are reads and never depend on the log.
	if _, _, err := r.RunQueryInfo(ctx, Query{Dataset: "UU", Kernel: "bfs", Scale: graph.ScaleTiny, Src: -1}); err != nil {
		t.Fatalf("query failed on a poisoned-WAL graph: %v", err)
	}
	// A batch that fails validation is rejected without touching the log
	// or the version (checked on a fresh, healthy runner).
	r2 := New(1)
	if _, err := r2.EnableWAL(ctx, t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ApplyUpdates(ctx, "UU", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 1 << 30, Dst: 0, Weight: 1}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if ver := r2.GraphVersion("UU", graph.ScaleTiny); ver != 0 {
		t.Fatalf("rejected batch advanced the version to %d", ver)
	}
	if _, err := r2.ApplyUpdates(ctx, "UU", graph.ScaleTiny, walBatch(rng, g.V, 2)); err != nil {
		t.Fatalf("healthy update refused after a rejected batch: %v", err)
	}
}

// TestRunnerWALCanceledAdmission: a done context refuses the batch before
// anything happens — no version bump, no log record.
func TestRunnerWALCanceledAdmission(t *testing.T) {
	r := New(1)
	if _, err := r.EnableWAL(context.Background(), t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ApplyUpdates(ctx, "UU", graph.ScaleTiny, []stream.EdgeUpdate{{Src: 0, Dst: 1, Weight: 1}}); err == nil {
		t.Fatal("canceled context admitted an update")
	}
	if ver := r.GraphVersion("UU", graph.ScaleTiny); ver != 0 {
		t.Fatalf("canceled update advanced the version to %d", ver)
	}
}
