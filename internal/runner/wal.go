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
// the new version (walState.commit), and EnableWAL replays the logs at
// startup so overlays survive a crash or restart bit-identically. A crash
// loses exactly the batches that were never acknowledged — the kill -9
// contract. A log that fails poisons its graph's updates, never its queries.

// WALRecovery summarizes one graph reconstructed during EnableWAL.
type WALRecovery struct {
	Dataset string
	Scale   graph.Scale
	Version uint64
	Edges   uint64 // recovered inserted edges, summed over the replayed batches
}

// walState is one graph's open log. The WAL directory (Runner.walDir) holds
// one subdirectory per updated graph, named by walSubdir ("DATASET@SCALE").
type walState struct {
	// mu is the commit lock: it orders {in-memory apply, WAL append} so log
	// order always matches version order. The fsync happens outside it
	// (group commit across committers).
	mu  sync.Mutex
	wal *stream.WAL
	err error // sticky: set on any log failure, refuses further updates
}

// EnableWAL turns on write-ahead logging under dir and replays any logs
// already there: each recovered graph's DynamicEngine is rebuilt at its
// pre-crash version and installed, so the first query after restart sees
// exactly the committed state. It must be called before update traffic
// (piccolo-serve calls it at startup); enabling twice or on a runner that
// already streamed updates is an error. A graph whose log cannot be
// replayed (bad dataset name, corrupt beyond the torn-tail tolerance, a
// stray file beside the log) fails EnableWAL rather than silently serving a
// rewound graph.
func (r *Runner) EnableWAL(ctx context.Context, dir string) ([]WALRecovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: wal dir: %w", err)
	}
	if r.walDir != "" || r.StreamStats().Version > 0 {
		return nil, fmt.Errorf("runner: EnableWAL after updates already applied")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runner: wal dir: %w", err)
	}
	// Every log replays before any is installed, so a failure installs none.
	var logs []*stream.WAL
	var installs []func()
	fail := func(err error) ([]WALRecovery, error) {
		for _, wal := range logs {
			wal.Close()
		}
		return nil, err
	}
	var recovered []WALRecovery
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		name := ent.Name()
		dataset, sc, err := parseWALSubdir(name)
		if err != nil {
			return fail(fmt.Errorf("runner: wal subdir %q: %w", name, err))
		}
		wal, rec, err := stream.OpenWAL(filepath.Join(dir, name), stream.WALOptions{})
		if err != nil {
			return fail(fmt.Errorf("runner: wal %s: %w", name, err))
		}
		logs = append(logs, wal)
		e, err := r.generator(dataset, sc)
		if err != nil {
			return fail(fmt.Errorf("runner: wal %s: unknown graph: %w", name, err))
		}
		d, err := stream.NewRestored(e.g, stream.Config{Workers: r.workers}, rec)
		if err != nil {
			return fail(fmt.Errorf("runner: wal %s: restore: %w", name, err))
		}
		installs = append(installs, func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			if e.wal = (&walState{wal: wal}); len(rec.Batches) > 0 {
				e.dyn.Store(d) // promoted at its pre-crash version
				e.static = nil
			}
		})
		st := d.Stats()
		recovered = append(recovered, WALRecovery{Dataset: dataset, Scale: sc, Version: st.Version, Edges: st.EdgesApplied})
	}
	for _, install := range installs {
		install()
	}
	r.walDir = dir
	return recovered, nil
}

// CloseWAL flushes and closes every graph's log (the graceful-shutdown
// path: call after in-flight updates have drained). The runner keeps
// serving queries; further updates fail until a new runner recovers the
// directory. A nil error means every log was durable at close.
func (r *Runner) CloseWAL() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, e := range r.graphs {
		e.mu.Lock()
		if ws := e.wal; ws != nil {
			ws.mu.Lock()
			if err := ws.wal.Close(); err != nil && first == nil {
				first = err
			}
			ws.mu.Unlock()
		}
		e.mu.Unlock()
	}
	return first
}

// openWAL creates the log of a graph's first update under the WAL directory
// dir.
func openWAL(dir, name string) (*walState, error) {
	wal, rec, err := stream.OpenWAL(filepath.Join(dir, name), stream.WALOptions{})
	if err != nil {
		return nil, err
	}
	if n := len(rec.Batches); n != 0 {
		// A non-empty log for a graph the runner believes is fresh means
		// EnableWAL did not see this directory (it was created after
		// startup by someone else); applying on top would fork history.
		wal.Close()
		return nil, fmt.Errorf("runner: wal %s: log already at version %d", name, n)
	}
	return &walState{wal: wal}, nil
}

// walSubdir names a graph's log directory, "DATASET@SCALE".
func walSubdir(name string, sc graph.Scale) string {
	return fmt.Sprintf("%s@%d", name, sc)
}

// parseWALSubdir inverts walSubdir: "DATASET@SCALE" → (dataset, scale).
func parseWALSubdir(key string) (string, graph.Scale, error) {
	i := strings.LastIndexByte(key, '@')
	if i <= 0 {
		return "", 0, fmt.Errorf("not of the form DATASET@SCALE")
	}
	n, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad scale: %w", err)
	}
	if sc := graph.Scale(n); sc >= graph.ScaleTiny && sc <= graph.ScaleMedium {
		return key[:i], sc, nil
	}
	return "", 0, fmt.Errorf("scale %d is none of tiny (%d), small (%d) or medium (%d)",
		n, graph.ScaleTiny, graph.ScaleSmall, graph.ScaleMedium)
}

// commit runs the WAL commit protocol for one batch against d, the graph's
// dynamic engine: under the commit lock it applies the batch in memory (which
// validates it, so a rejected batch touches neither memory nor log) and
// appends the (version, batch) record, so log order matches version order
// even under concurrent updates; then, outside the lock, it fsyncs and only
// then acknowledges. A log failure poisons the graph: its memory is ahead of
// its log, and acknowledging more would leave an unreplayable gap.
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
	return ver, nil
}
