package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"piccolo/internal/graph"
)

// Stored graphs (DESIGN.md §14): segments opened from disk and registered
// by name next to the generator datasets. A stored graph never rebuilds —
// piccolo-serve -graph-dir mmaps it at startup — and its queries are keyed
// by the segment's content digest, so two processes serving the same file
// (or one process across restarts with a warm external cache) agree on the
// address of every result. Stored graphs are read-only: ApplyUpdates
// refuses them, so their version is always 0 and their cache entries can
// never go stale.

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
	// the segment since it was opened (graph.Segment.Decoded): they climb
	// while the engine builds its indexes and stand still once it is warm.
	BlocksDecoded uint64 `json:"blocks_decoded"`
	EdgesDecoded  uint64 `json:"edges_decoded"`
}

// storedEntry is one registered segment. Its engine lives in the runner's
// engine memo under engineKey{name, stored: true}.
type storedEntry struct {
	seg *graph.Segment
}

// storedRegistry maps graph names to opened segments.
type storedRegistry struct {
	mu sync.Mutex
	m  map[string]*storedEntry
}

func newStoredRegistry() *storedRegistry {
	return &storedRegistry{m: map[string]*storedEntry{}}
}

func (c *storedRegistry) get(name string) *storedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

func storedInfo(seg *graph.Segment) StoredInfo {
	blocks, edges := seg.Decoded()
	return StoredInfo{
		Name:     seg.Name(),
		Digest:   seg.Digest(),
		Vertices: seg.NumVertices(),
		Edges:    seg.NumEdges(),
		Blocks:   seg.NumBlocks(),
		Bytes:    seg.SizeBytes(),
		Mapped:   seg.Mapped(),

		BlocksDecoded: blocks,
		EdgesDecoded:  edges,
	}
}

// OpenStored opens and validates a segment file and registers it under its
// embedded graph name, which queries then use as the Dataset. Reopening a
// byte-identical file (equal digests) is a no-op; a name collision with a
// different digest is an error — silently replacing a live graph under
// in-flight queries is never what the operator meant. A stored name takes
// precedence over a generator dataset of the same name on the query path.
func (r *Runner) OpenStored(path string) (StoredInfo, error) {
	seg, err := graph.OpenSegment(path)
	if err != nil {
		return StoredInfo{}, err
	}
	name := seg.Name()
	if name == "" {
		seg.Close()
		return StoredInfo{}, fmt.Errorf("runner: segment %s has an empty graph name", path)
	}
	r.stored.mu.Lock()
	defer r.stored.mu.Unlock()
	if old := r.stored.m[name]; old != nil {
		if old.seg.Digest() == seg.Digest() {
			seg.Close()
			return storedInfo(old.seg), nil
		}
		seg.Close()
		return StoredInfo{}, fmt.Errorf("runner: stored graph %q already open with a different digest", name)
	}
	r.stored.m[name] = &storedEntry{seg: seg}
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
		info, err := r.OpenStored(p)
		if err != nil {
			return infos, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// StoredGraphs lists the registered stored graphs sorted by name.
func (r *Runner) StoredGraphs() []StoredInfo {
	r.stored.mu.Lock()
	infos := make([]StoredInfo, 0, len(r.stored.m))
	for _, se := range r.stored.m {
		infos = append(infos, storedInfo(se.seg))
	}
	r.stored.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// StoredDigest returns the content digest of the named stored graph, and
// false when no such graph is registered.
func (r *Runner) StoredDigest(name string) (string, bool) {
	if se := r.stored.get(name); se != nil {
		return se.seg.Digest(), true
	}
	return "", false
}

// KnownDataset reports whether name resolves on the query path: a stored
// graph or a generator dataset proxy.
func (r *Runner) KnownDataset(name string) bool {
	if r.stored.get(name) != nil {
		return true
	}
	_, err := graph.ByName(name)
	return err == nil
}

// CloseStored unregisters and closes every stored graph. It must not race
// in-flight queries (the serving process calls it after drain); it exists
// so tests and orderly shutdowns release their mmaps.
func (r *Runner) CloseStored() error {
	r.stored.mu.Lock()
	defer r.stored.mu.Unlock()
	var first error
	for name, se := range r.stored.m {
		if err := se.seg.Close(); err != nil && first == nil {
			first = err
		}
		r.engines.evict(engineKey{name: name, stored: true})
		delete(r.stored.m, name)
	}
	return first
}

// storedReadOnlyErr is the rejection every mutation of a stored graph gets.
func storedReadOnlyErr(name string) error {
	return fmt.Errorf("runner: stored graph %q is read-only (segments have no update path)", name)
}

// rejectStoredUpdate refuses ApplyUpdates on stored graphs with a metrics
// observation, keeping the caller's error-path behavior uniform.
func (r *Runner) rejectStoredUpdate(name string, start time.Time) (uint64, error) {
	err := storedReadOnlyErr(name)
	r.metrics.observeUpdate(err, start)
	return 0, err
}
