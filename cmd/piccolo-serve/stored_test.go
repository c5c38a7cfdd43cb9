package main

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"piccolo/internal/graph"
	"piccolo/internal/runner"
)

// TestGraphDirServing is the -graph-dir end-to-end path: segments loaded at
// startup serve /query with no rebuild, appear in /stats, and refuse
// /update as read-only.
func TestGraphDirServing(t *testing.T) {
	dir := t.TempDir()
	g := graph.Kronecker("served-kron", 9, 8, 3)
	if err := g.WriteSegmentFile(filepath.Join(dir, "served-kron"+runner.SegmentExt)); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t)
	infos, err := s.runner.OpenGraphDir(dir) // what main() does for -graph-dir
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "served-kron" {
		t.Fatalf("loaded %+v, want served-kron", infos)
	}

	resp := post(t, ts.URL+"/query", queryRequest{Dataset: "served-kron", Kernel: "pr"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Mode != "engine" || out.Vertices != g.V || out.Edges != g.E() || out.Version != 0 {
		t.Fatalf("response %+v, want engine-served shape of the segment", out)
	}
	if len(out.Top) == 0 || out.Key == "" {
		t.Fatalf("response %+v missing ranking or key", out)
	}

	// Repeat: served from the digest-keyed cache.
	resp2 := post(t, ts.URL+"/query", queryRequest{Dataset: "served-kron", Kernel: "pr"})
	var out2 queryResponse
	json.NewDecoder(resp2.Body).Decode(&out2)
	resp2.Body.Close()
	if out2.Mode != "cached" || out2.Key != out.Key {
		t.Fatalf("repeat mode %q key match=%v, want cached identical key", out2.Mode, out2.Key == out.Key)
	}

	// Stored graphs are read-only: /update answers 400 with a clear reason.
	resp3 := post(t, ts.URL+"/update", map[string]any{
		"dataset": "served-kron",
		"edges":   []map[string]any{{"src": 0, "dst": 1, "weight": 1}},
	})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("update status %d, want 400", resp3.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp3.Body).Decode(&e)
	resp3.Body.Close()
	if !strings.Contains(e.Error, "read-only") {
		t.Fatalf("update error %q does not say read-only", e.Error)
	}

	// /stats lists the stored graph, and its decode counters are the ones
	// /metrics exports. The engine reads a segment only to build its
	// indexes: the first traversal pays the sub-CSR build, and the ones
	// after it — cache misses all, every source new — decode nothing.
	stored := func() runner.StoredInfo {
		t.Helper()
		statsResp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer statsResp.Body.Close()
		var stats struct {
			StoredGraphs []runner.StoredInfo `json:"stored_graphs"`
		}
		if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if len(stats.StoredGraphs) != 1 || stats.StoredGraphs[0].Name != "served-kron" {
			t.Fatalf("stats stored_graphs = %+v", stats.StoredGraphs)
		}
		return stats.StoredGraphs[0]
	}
	traverse := func(kernel string, src int64) {
		t.Helper()
		resp := post(t, ts.URL+"/query", queryRequest{Dataset: "served-kron", Kernel: kernel, Src: &src})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s from %d: status %d", kernel, src, resp.StatusCode)
		}
	}
	traverse("sssp", 1)
	warm := stored()
	if warm.BlocksDecoded < uint64(warm.Blocks) || warm.EdgesDecoded < warm.Edges {
		t.Fatalf("after an index build: %d blocks / %d edges decoded, want at least one pass over %d / %d",
			warm.BlocksDecoded, warm.EdgesDecoded, warm.Blocks, warm.Edges)
	}
	for src := int64(2); src < 6; src++ {
		traverse("sssp", src)
		traverse("sswp", src)
		traverse("bfs", src)
	}
	after := stored()
	if after.BlocksDecoded != warm.BlocksDecoded || after.EdgesDecoded != warm.EdgesDecoded {
		t.Errorf("warm queries decoded %d more blocks (%d edges), want none",
			after.BlocksDecoded-warm.BlocksDecoded, after.EdgesDecoded-warm.EdgesDecoded)
	}
	vals := scrapeMetrics(t, ts.URL)
	if got := vals[`piccolo_segment_blocks_decoded_total{graph="served-kron"}`]; got != float64(after.BlocksDecoded) {
		t.Errorf("/metrics blocks decoded = %v, /stats says %d", got, after.BlocksDecoded)
	}
	if got := vals[`piccolo_segment_edges_decoded_total{graph="served-kron"}`]; got != float64(after.EdgesDecoded) {
		t.Errorf("/metrics edges decoded = %v, /stats says %d", got, after.EdgesDecoded)
	}
}
