// Write-ahead log for streaming overlays (DESIGN.md §13). A serve process
// dies with its in-memory overlays; the WAL makes every acknowledged update
// batch durable so a restart reconstructs the exact pre-crash overlay state.
//
// One WAL owns one directory, logs one graph's update stream, and is one
// append-only file there, wal-00000001.log: an 8-byte magic ("PWAL0001")
// then records back to back. Each record is
//
//	u32 LE  payload length
//	u32 LE  CRC32C (Castagnoli) of the payload
//	payload: u64 LE version | u32 LE edge count | count × (u32 src, u32 dst, u8 weight)
//
// The records are the graph's history: version n is record n, and replay
// needs every one of them since the base graph, so nothing ever rewrites or
// deletes them.
//
// Records are framed *and* checksummed so a torn tail — the process was
// killed mid-write — is detected rather than misread: replay stops at the
// first record whose header is short, whose payload is short, or whose CRC
// mismatches, and Open truncates the file back to the last whole record so
// the next append continues from a clean boundary. A record therefore
// commits atomically: either its full bytes reached the disk (and the batch
// survives) or the batch was never acknowledged.
//
// Durability is group-committed: Append writes into the OS buffer under the
// log lock and returns an offset; Sync(offset) blocks until an fsync covers
// that offset, with one leader syncing on behalf of every waiter that
// arrived while the previous fsync was in flight. Concurrent committers
// therefore pay ~one fsync per disk round trip, not one each.
package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	walMagic = "PWAL0001"

	// walFile is the log's name inside its directory. It is the first
	// segment's name in the segmented format, so a log of that format that
	// never rotated opens unchanged.
	walFile = "wal-00000001.log"

	// walMaxPayload bounds a decoded record's claimed payload so a corrupt
	// length field cannot drive a huge allocation. Records hold one update
	// batch (≤ maxBatchEdges edges × 9 bytes + header), far below this.
	walMaxPayload = 16 << 20
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one committed update batch and the graph version its
// application produced.
type WALRecord struct {
	Version uint64
	Batch   []EdgeUpdate
}

// appendWALRecord appends the wire encoding of one record to dst.
func appendWALRecord(dst []byte, version uint64, batch []EdgeUpdate) []byte {
	payload := make([]byte, 0, 12+9*len(batch))
	payload = binary.LittleEndian.AppendUint64(payload, version)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(batch)))
	for _, e := range batch {
		payload = binary.LittleEndian.AppendUint32(payload, e.Src)
		payload = binary.LittleEndian.AppendUint32(payload, e.Dst)
		payload = append(payload, e.Weight)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crc32c))
	return append(dst, payload...)
}

// decodeWALRecord decodes one record from the front of data. It returns the
// record and the number of bytes consumed. Every failure mode of a torn or
// corrupt tail — short header, short payload, CRC mismatch, payload
// inconsistent with its edge count — is an error and consumes nothing; the
// decoder never panics on any input (FuzzWALDecode).
func decodeWALRecord(data []byte) (WALRecord, int, error) {
	if len(data) < 8 {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record header torn (%d of 8 bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if plen > walMaxPayload {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record payload length %d exceeds cap", plen)
	}
	if uint64(len(data)-8) < uint64(plen) {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record payload torn (%d of %d bytes)", len(data)-8, plen)
	}
	payload := data[8 : 8+plen]
	if crc32.Checksum(payload, crc32c) != sum {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record checksum mismatch")
	}
	if plen < 12 {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record payload too short (%d bytes)", plen)
	}
	n := binary.LittleEndian.Uint32(payload[8:12])
	if uint64(plen) != 12+9*uint64(n) {
		return WALRecord{}, 0, fmt.Errorf("stream: wal record edge count %d inconsistent with payload length %d", n, plen)
	}
	rec := WALRecord{
		Version: binary.LittleEndian.Uint64(payload[0:8]),
		Batch:   make([]EdgeUpdate, n),
	}
	for i := range rec.Batch {
		off := 12 + 9*i
		rec.Batch[i] = EdgeUpdate{
			Src:    binary.LittleEndian.Uint32(payload[off : off+4]),
			Dst:    binary.LittleEndian.Uint32(payload[off+4 : off+8]),
			Weight: payload[off+8],
		}
	}
	return rec, 8 + int(plen), nil
}

// Recovered is what a WAL replay reconstructs: the committed batches since
// the base graph, Batches[i] the one that produced version i+1. NewRestored
// replays them into a DynamicEngine whose query results are bit-identical to
// the pre-crash engine at the same version (wal_test.go pins this against a
// never-crashed twin).
type Recovered struct {
	Batches [][]EdgeUpdate
}

// WALOptions tunes a WAL. The zero value selects durable (fsync) commits.
type WALOptions struct {
	// NoSync skips fsyncs (tests only: a crash can then lose acknowledged
	// batches, which is exactly what the log exists to prevent).
	NoSync bool
}

// WAL is one graph's write-ahead log. Append/Sync/Close are safe for
// concurrent use, but the caller must externally order Append calls by
// version (the runner holds a per-graph commit lock around the in-memory
// apply and the append, so log order always matches version order).
type WAL struct {
	opts WALOptions

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	written int64 // bytes handed to the OS
	synced  int64 // bytes known durable
	syncing bool  // a leader fsync is in flight
	err     error // sticky: after any write/sync failure the log refuses work
}

// OpenWAL opens (creating if needed) the log in dir and replays it: every
// whole record in order, stopping at the first torn one and truncating the
// file back to the last record boundary so appends resume cleanly. Each
// record's version must be its predecessor's + 1, the first's 1. The
// returned Recovered state is exactly the committed history; a fresh
// directory recovers no batch (version 0). A directory holding any file but the log
// is an error naming that file: the log alone is the history, so a file
// beside it (a checkpoint or second segment an older build left) would make
// the replay silently shorter.
func OpenWAL(dir string, opts WALOptions) (*WAL, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("stream: wal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: wal dir: %w", err)
	}
	for _, e := range entries {
		if e.Name() != walFile {
			return nil, nil, fmt.Errorf("stream: wal dir %s holds %s; only %s belongs there", dir, e.Name(), walFile)
		}
	}
	path := filepath.Join(dir, walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: wal open: %w", err)
	}
	w := &WAL{opts: opts, f: f}
	w.cond = sync.NewCond(&w.mu)
	rec, err := w.replay(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, rec, nil
}

// replay reads the log, leaves its file at the end of the last whole record
// and sets the written/synced marks there.
func (w *WAL) replay(path string) (*Recovered, error) {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return nil, fmt.Errorf("stream: wal read: %w", err)
	}
	rec := &Recovered{}
	valid := len(walMagic)
	if len(data) < valid || string(data[:valid]) != walMagic {
		if len(data) > valid {
			return nil, fmt.Errorf("stream: wal %s: bad magic", path)
		}
		// Created, then killed before its magic landed: no record was ever
		// appended. Without the magic every record appended now would be
		// discarded by the next recovery, so write it (over all len(data)
		// bytes) first.
		if _, err := w.f.WriteAt([]byte(walMagic), 0); err != nil {
			return nil, fmt.Errorf("stream: wal magic: %w", err)
		}
		if !w.opts.NoSync {
			if err := w.f.Sync(); err != nil {
				return nil, fmt.Errorf("stream: wal sync: %w", err)
			}
			syncDir(filepath.Dir(path))
		}
		data = data[:0]
	}
	for valid < len(data) {
		r, n, err := decodeWALRecord(data[valid:])
		if err != nil {
			break // torn tail: everything before it is committed
		}
		have := uint64(len(rec.Batches))
		if r.Version != have+1 {
			return nil, fmt.Errorf("stream: wal %s: version gap or repeat (have %d, next record %d)",
				path, have, r.Version)
		}
		rec.Batches = append(rec.Batches, r.Batch)
		valid += n
	}
	if valid < len(data) {
		if err := w.f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("stream: wal truncate torn tail: %w", err)
		}
	}
	if _, err := w.f.Seek(int64(valid), 0); err != nil {
		return nil, fmt.Errorf("stream: wal seek: %w", err)
	}
	w.written, w.synced = int64(valid), int64(valid)
	return rec, nil
}

// syncDir fsyncs a directory so a file created in it is durable.
// Best-effort: some filesystems reject directory fsync; the data fsync
// already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Append writes one record into the OS buffer and returns the offset a
// Sync call must reach for the record to be durable. The write order is
// the commit order; callers serialize Append externally per log.
func (w *WAL) Append(version uint64, batch []EdgeUpdate) (int64, error) {
	buf := appendWALRecord(nil, version, batch)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("stream: wal append: %w", err)
		w.cond.Broadcast()
		return 0, w.err
	}
	w.written += int64(len(buf))
	return w.written, nil
}

// Sync blocks until every byte up to off is durable (group commit): the
// first waiter becomes the leader and fsyncs once for everyone who queued
// behind the in-flight sync. With NoSync it only validates the sticky
// error.
func (w *WAL) Sync(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.NoSync {
		if w.synced < off {
			w.synced = off
		}
		return w.err
	}
	for w.err == nil && w.synced < off {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.written
		f := w.f
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("stream: wal sync: %w", err)
		} else if w.synced < target {
			w.synced = target
		}
		w.cond.Broadcast()
	}
	return w.err
}

// Close makes the log durable and releases the file. Further operations
// fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.f == nil {
		return w.err
	}
	var err error
	if !w.opts.NoSync && w.err == nil && w.synced < w.written {
		err = w.f.Sync()
	}
	cerr := w.f.Close()
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("stream: wal closed")
	}
	if err != nil {
		return fmt.Errorf("stream: wal close sync: %w", err)
	}
	return cerr
}
