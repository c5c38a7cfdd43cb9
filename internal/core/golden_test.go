package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"piccolo/internal/accel"
	"piccolo/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenFirstTileScale is each system's first tile-width candidate of the
// Fig. 10 search (internal/experiments.tileCandidates); 0 means untiled.
func goldenFirstTileScale(sys accel.System) int {
	switch sys {
	case accel.Graphicionado, accel.GraphDynsSPM, accel.GraphDynsCache:
		return 1
	case accel.PIM:
		return 0
	default:
		return 4
	}
}

// resultDigest hashes every simulated statistic of a run and the final
// property vector. The derived floats (energy, bandwidths) are left out:
// they are pure functions of the hashed counters, and fused multiply-add
// makes their last bit platform dependent.
func resultDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%d|%d|%d|%d|%d|%d|%+v|%+v|%+v|%d|%d|%d|%d|%d|",
		r.System, r.Cycles, r.Iterations, r.EdgesProcessed, r.SrcVisits, r.ApplyVisits, r.TopoBytes,
		r.Mem, r.Cache, r.Coll, r.DbgWindowStalls, r.DbgStreamStalls, r.DbgDrainForced,
		r.OnChipBytes, r.TileWidth)
	var word [8]byte
	for _, p := range r.Prop {
		binary.LittleEndian.PutUint64(word[:], p)
		h.Write(word[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenStats pins the simulated statistics of a small fixed matrix
// (6 systems × {bfs, pr capped at 3 iterations, sssp, cc} on UU@tiny: a
// frontier, an all-active, a weighted and a long-running frontier kernel),
// so a change to the simulator that moves any number fails `go test ./...`.
// Regenerate with `go test ./internal/core -run TestGoldenStats -update`
// only when a modelling change is intended.
func TestGoldenStats(t *testing.T) {
	ds, err := graph.ByName("UU")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Build(graph.ScaleTiny)

	got := map[string]string{}
	for _, sys := range accel.Systems() {
		for _, kernel := range []string{"bfs", "pr", "sssp", "cc"} {
			cfg := Config{System: sys, Kernel: kernel, Scale: graph.ScaleTiny, Src: -1}
			if kernel == "pr" {
				cfg.MaxIters = 3
			}
			cfg.TileScale = goldenFirstTileScale(sys)
			cfg.Untiled = cfg.TileScale == 0
			res, err := Run(cfg, g)
			if err != nil {
				t.Fatalf("%v/%s: %v", sys, kernel, err)
			}
			if err := Validate(cfg, g, res); err != nil {
				t.Errorf("%v/%s: %v", sys, kernel, err)
			}
			got[fmt.Sprintf("%v/%s/UU@tiny", sys, kernel)] = resultDigest(res)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenStatsPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenStatsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d runs, the matrix has %d", goldenStatsPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: simulated statistics changed: digest %s, golden %s", key, digest, want[key])
		}
	}
}
