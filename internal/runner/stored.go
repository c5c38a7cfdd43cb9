package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"piccolo/internal/graph"
)

// Stored graphs (DESIGN.md §14): segments opened from disk and registered
// by name next to the generator datasets. Their queries are keyed by the
// segment's content digest, so two processes serving the same file agree on
// the address of every result. They are read-only, so their version is
// always 0 and their cache entries never go stale.

// SegmentExt is the conventional file extension for PICSEG01 segments
// (cmd/graphgen writes it; Runner.OpenGraphDir loads it).
const SegmentExt = ".pseg"

// StoredInfo describes one registered stored graph.
type StoredInfo struct {
	Name     string `json:"name"`
	Digest   string `json:"digest"`
	Vertices uint32 `json:"vertices"`
	Edges    uint64 `json:"edges"`
	Blocks   int    `json:"blocks"`
	Bytes    uint64 `json:"bytes"`
	Mapped   bool   `json:"mapped"`
	// BlocksDecoded and EdgesDecoded count what readers have decoded from
	// the segment since it was opened (graph.Segment.Decoded): building the
	// engine decodes the segment once, and queries decode nothing.
	BlocksDecoded uint64 `json:"blocks_decoded"`
	EdgesDecoded  uint64 `json:"edges_decoded"`
}

func storedInfo(seg *graph.Segment) StoredInfo {
	blocks, edges := seg.Decoded()
	return StoredInfo{
		Name:          seg.Name(),
		Digest:        seg.Digest(),
		Vertices:      seg.NumVertices(),
		Edges:         seg.NumEdges(),
		Blocks:        seg.NumBlocks(),
		Bytes:         seg.SizeBytes(),
		Mapped:        seg.Mapped(),
		BlocksDecoded: blocks,
		EdgesDecoded:  edges,
	}
}

// openStored opens and validates a segment file and registers it under its
// embedded graph name, which queries then use as the Dataset. Reopening a
// byte-identical file (equal digests) is a no-op; a name collision with a
// different digest is an error — silently replacing a live graph under
// in-flight queries is never what the operator meant. A stored name takes
// precedence over a generator dataset of the same name on the query path.
func (r *Runner) openStored(path string) (StoredInfo, error) {
	seg, err := graph.OpenSegment(path)
	if err != nil {
		return StoredInfo{}, err
	}
	name := seg.Name()
	if name == "" {
		seg.Close()
		return StoredInfo{}, fmt.Errorf("runner: segment %s has an empty graph name", path)
	}
	k := graphKey{name: name, stored: true}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.graphs[k]; old != nil {
		if old.seg.Digest() == seg.Digest() {
			seg.Close()
			return storedInfo(old.seg), nil
		}
		seg.Close()
		return StoredInfo{}, fmt.Errorf("runner: stored graph %q already open with a different digest", name)
	}
	r.graphs[k] = &graphEntry{seg: seg}
	r.metrics.bridgeSegment(r, name)
	return storedInfo(seg), nil
}

// OpenGraphDir registers every *.pseg segment in dir (sorted by filename,
// so registration order — and therefore which file wins a duplicate-name
// conflict — is deterministic). It fails on the first unreadable or invalid
// segment: a serving process must not come up quietly missing graphs.
func (r *Runner) OpenGraphDir(dir string) ([]StoredInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), SegmentExt) {
			paths = append(paths, filepath.Join(dir, ent.Name()))
		}
	}
	sort.Strings(paths)
	infos := make([]StoredInfo, 0, len(paths))
	for _, p := range paths {
		info, err := r.openStored(p)
		if err != nil {
			return infos, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// StoredGraphs lists the registered stored graphs sorted by name.
func (r *Runner) StoredGraphs() []StoredInfo {
	infos := []StoredInfo{} // JSON [] when there are none
	r.mu.Lock()
	for k, e := range r.graphs {
		if k.stored {
			infos = append(infos, storedInfo(e.seg))
		}
	}
	r.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
