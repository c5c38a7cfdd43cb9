package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"piccolo/internal/graph"
	"piccolo/internal/stream"
)

// WAL integration (DESIGN.md §13): when enabled, every acknowledged update
// batch is written to a per-graph write-ahead log before the caller sees
// the new version, and EnableWAL replays the logs at startup so overlays
// survive a crash or restart bit-identically.
//
// Commit protocol, per graph, under the walState commit lock:
//
//	1. apply the batch in memory (DynamicEngine.ApplyUpdates — validation
//	   happens here, so a rejected batch touches neither memory nor log)
//	2. append the (version, batch) record to the WAL
//	3. release the lock, fsync (group commit), then acknowledge
//
// A crash between apply and fsync loses exactly the batches that were
// never acknowledged — the kill -9 contract. If the log itself fails
// (append or fsync error) the graph's WAL state is poisoned and every
// subsequent update for that graph is refused: the in-memory version has
// advanced past the durable one, so acknowledging anything further would
// leave an unreplayable gap in the log. Queries keep serving throughout —
// reads never depend on the log.

// WALRecovery summarizes one graph reconstructed during EnableWAL.
type WALRecovery struct {
	Dataset string
	Scale   graph.Scale
	Version uint64
	Edges   uint64 // recovered overlay edges (delta history length)
}

// walManager owns the WAL directory: one subdirectory per updated graph,
// named by streamKey ("DATASET@SCALE").
type walManager struct {
	dir      string
	segBytes int64

	mu sync.Mutex
	m  map[string]*walState
}

// walState is one graph's log plus the in-memory state a checkpoint needs.
type walState struct {
	// mu is the commit lock: it orders {in-memory apply, WAL append,
	// history append} so log order always matches version order. The fsync
	// happens outside it (group commit across committers).
	mu      sync.Mutex
	wal     *stream.WAL
	history []stream.EdgeUpdate // full insertion history since base
	version uint64
	err     error // sticky: set on any log failure, refuses further updates
}

// EnableWAL turns on write-ahead logging under dir and replays any logs
// already there: each recovered graph's DynamicEngine is rebuilt at its
// pre-crash version and installed, so the first query after restart sees
// exactly the committed state. It must be called before update traffic
// (piccolo-serve calls it at startup); enabling twice or on a runner that
// already streamed updates is an error. segBytes <= 0 selects
// stream.DefaultSegmentBytes. A graph whose log cannot be replayed (bad
// dataset name, corrupt beyond the torn-tail tolerance) fails EnableWAL
// rather than silently serving a rewound graph.
func (r *Runner) EnableWAL(ctx context.Context, dir string, segBytes int64) ([]WALRecovery, error) {
	if segBytes <= 0 {
		segBytes = stream.DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: wal dir: %w", err)
	}
	r.streams.mu.Lock()
	streamed := len(r.streams.m)
	r.streams.mu.Unlock()
	if r.wal != nil || streamed > 0 {
		return nil, fmt.Errorf("runner: EnableWAL after updates already applied")
	}
	w := &walManager{dir: dir, segBytes: segBytes, m: map[string]*walState{}}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runner: wal dir: %w", err)
	}
	var recovered []WALRecovery
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := ctx.Err(); err != nil {
			w.closeAll()
			return nil, err
		}
		key := e.Name()
		dataset, sc, err := parseStreamKey(key)
		if err != nil {
			w.closeAll()
			return nil, fmt.Errorf("runner: wal subdir %q: %w", key, err)
		}
		wal, rec, err := stream.OpenWAL(filepath.Join(dir, key), stream.WALOptions{SegmentBytes: segBytes})
		if err != nil {
			w.closeAll()
			return nil, fmt.Errorf("runner: wal %s: %w", key, err)
		}
		g, err := r.Graph(dataset, sc)
		if err != nil {
			wal.Close()
			w.closeAll()
			return nil, fmt.Errorf("runner: wal %s: unknown graph: %w", key, err)
		}
		d, err := stream.NewRestored(g, stream.Config{Workers: r.workers}, &stream.Recovered{
			Version: rec.Version,
			History: rec.History,
		})
		if err != nil {
			wal.Close()
			w.closeAll()
			return nil, fmt.Errorf("runner: wal %s: restore: %w", key, err)
		}
		if rec.Version > 0 {
			r.streams.install(dataset, sc, d)
		}
		w.m[key] = &walState{wal: wal, history: rec.History, version: rec.Version}
		recovered = append(recovered, WALRecovery{
			Dataset: dataset, Scale: sc,
			Version: rec.Version, Edges: uint64(len(rec.History)),
		})
	}
	r.wal = w
	return recovered, nil
}

// CloseWAL flushes and closes every graph's log (the graceful-shutdown
// path: call after in-flight updates have drained). The runner keeps
// serving queries; further updates fail until a new runner recovers the
// directory. A nil error means every log was durable at close.
func (r *Runner) CloseWAL() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.closeAll()
}

// state returns (creating if needed) the WAL state for one graph.
func (w *walManager) state(dataset string, sc graph.Scale) (*walState, error) {
	key := streamKey(dataset, sc)
	w.mu.Lock()
	defer w.mu.Unlock()
	if ws := w.m[key]; ws != nil {
		return ws, nil
	}
	wal, rec, err := stream.OpenWAL(filepath.Join(w.dir, key), stream.WALOptions{SegmentBytes: w.segBytes})
	if err != nil {
		return nil, err
	}
	if rec.Version != 0 {
		// A non-empty log for a graph the runner believes is fresh means
		// EnableWAL did not see this directory (it was created after
		// startup by someone else); applying on top would fork history.
		wal.Close()
		return nil, fmt.Errorf("runner: wal %s: log already at version %d", key, rec.Version)
	}
	ws := &walState{wal: wal}
	w.m[key] = ws
	return ws, nil
}

func (w *walManager) closeAll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for _, ws := range w.m {
		ws.mu.Lock()
		if err := ws.wal.Close(); err != nil && first == nil {
			first = err
		}
		ws.mu.Unlock()
	}
	return first
}

// parseStreamKey inverts streamKey: "DATASET@SCALE" → (dataset, scale).
func parseStreamKey(key string) (string, graph.Scale, error) {
	i := strings.LastIndexByte(key, '@')
	if i <= 0 {
		return "", 0, fmt.Errorf("not of the form DATASET@SCALE")
	}
	n, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad scale: %w", err)
	}
	return key[:i], graph.Scale(n), nil
}

// commit runs the WAL commit protocol for one batch against d, the
// graph's dynamic engine: the in-memory apply and the log append both
// happen inside the commit lock, so log order matches version order even
// under concurrent updates.
func (ws *walState) commit(d *stream.DynamicEngine, batch []stream.EdgeUpdate) (uint64, error) {
	ws.mu.Lock()
	if ws.err != nil {
		err := ws.err
		ws.mu.Unlock()
		return 0, err
	}
	ver, err := d.ApplyUpdates(batch)
	if err != nil {
		// Validation failure: nothing was applied, nothing needs logging.
		ws.mu.Unlock()
		return 0, &InvalidError{err}
	}
	off, err := ws.wal.Append(ver, batch)
	if err != nil {
		// Applied in memory but not durable: the graph is now ahead of its
		// log, so no further update may be acknowledged.
		ws.err = fmt.Errorf("runner: wal poisoned (version %d applied but not logged): %w", ver, err)
		err := ws.err
		ws.mu.Unlock()
		return 0, err
	}
	ws.history = append(ws.history, batch...)
	ws.version = ver
	ws.mu.Unlock()

	// Group commit outside the lock: concurrent committers share fsyncs.
	if err := ws.wal.Sync(off); err != nil {
		ws.mu.Lock()
		if ws.err == nil {
			ws.err = fmt.Errorf("runner: wal poisoned (version %d applied but not durable): %w", ver, err)
		}
		err := ws.err
		ws.mu.Unlock()
		return 0, err
	}
	if ws.wal.SizeExceeded() {
		ws.rotate()
	}
	return ver, nil
}

// rotate checkpoints the full history and starts a fresh segment. Failure
// is non-fatal — the old segments still replay — unless the log poisoned
// itself internally, which subsequent commits will surface.
func (ws *walState) rotate() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.err != nil {
		return
	}
	// Best effort: Rotate's own sticky error (if any) fails the next
	// append, which poisons the state with full context there.
	_ = ws.wal.Rotate(ws.version, ws.history)
}
