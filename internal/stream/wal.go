// Write-ahead log for streaming overlays (DESIGN.md §13). A serve process
// dies with its in-memory overlays; the WAL makes every acknowledged update
// batch durable so a restart reconstructs the exact pre-crash overlay state.
//
// One WAL owns one directory and logs one graph's update stream. The
// directory holds numbered segment files plus at most one checkpoint:
//
//	wal-00000001.log            append-only record segments
//	checkpoint-0000000000000040.ckpt   full delta state at version 0x40
//
// Segment format: an 8-byte magic ("PWAL0001") then records back to back.
// Each record is
//
//	u32 LE  payload length
//	u32 LE  CRC32C (Castagnoli) of the payload
//	payload: u64 LE version | u32 LE edge count | count × (u32 src, u32 dst, u8 weight)
//
// Records are framed *and* checksummed so a torn tail — the process was
// killed mid-write — is detected rather than misread: replay stops at the
// first record whose header is short, whose payload is short, or whose CRC
// mismatches, and Open truncates the segment back to the last whole record
// so the next append continues from a clean boundary. A record therefore
// commits atomically: either its full bytes reached the disk (and the batch
// survives) or the batch was never acknowledged.
//
// Durability is group-committed: Append writes into the OS buffer under the
// log lock and returns an offset; Sync(offset) blocks until an fsync covers
// that offset, with one leader syncing on behalf of every waiter that
// arrived while the previous fsync was in flight. Concurrent committers
// therefore pay ~one fsync per disk round trip, not one each.
//
// A checkpoint collapses the whole history into one blob (same framing,
// "PCKP0001" magic, u64 edge count): the full inserted-edge sequence in
// insertion order plus the version it reaches. Rotate writes it via
// temp-file + rename (atomic on POSIX), fsyncs file and directory, starts a
// fresh segment and deletes the superseded files, bounding both replay time
// and disk footprint. Recovery loads the newest valid checkpoint and replays
// only the records beyond its version.
package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	walMagic  = "PWAL0001"
	ckptMagic = "PCKP0001"

	// walMaxPayload bounds a decoded record's claimed payload so a corrupt
	// length field cannot drive a huge allocation. Records hold one update
	// batch (≤ MaxBatchEdges edges × 9 bytes + header), far below this.
	walMaxPayload = 16 << 20

	// DefaultSegmentBytes is the rotation threshold when the caller passes
	// none: once the active segment outgrows it, the next commit writes a
	// checkpoint and starts a fresh segment.
	DefaultSegmentBytes = 4 << 20
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one committed update batch and the graph version its
// application produced.
type WALRecord struct {
	Version uint64
	Batch   []EdgeUpdate
}

// AppendWALRecord appends the wire encoding of one record to dst.
func AppendWALRecord(dst []byte, version uint64, batch []EdgeUpdate) []byte {
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

// DecodeWALRecord decodes one record from the front of data. It returns the
// record and the number of bytes consumed. Every failure mode of a torn or
// corrupt tail — short header, short payload, CRC mismatch, payload
// inconsistent with its edge count — is an error and consumes nothing; the
// decoder never panics on any input (FuzzWALDecode).
func DecodeWALRecord(data []byte) (WALRecord, int, error) {
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

// Recovered is the overlay state a WAL replay reconstructs: the full
// inserted-edge history since the base graph, in insertion order, and the
// version it reaches. NewRestored rebuilds a DynamicEngine from it whose
// query results are bit-identical to the pre-crash engine at the same
// version (wal_test.go pins this against a never-crashed twin).
type Recovered struct {
	Version uint64
	History []EdgeUpdate
}

// WALOptions tunes a WAL. The zero value selects DefaultSegmentBytes and
// durable (fsync) commits.
type WALOptions struct {
	// SegmentBytes is the active-segment size past which SizeExceeded
	// reports true, prompting the owner to Rotate. <= 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips fsyncs (tests only: a crash can then lose acknowledged
	// batches, which is exactly what the log exists to prevent).
	NoSync bool
}

// WAL is one graph's write-ahead log. Append/Sync/Size/Rotate/Close are
// safe for concurrent use, but the caller must externally order Append
// calls by version (the runner holds a per-graph commit lock around the
// in-memory apply and the append, so log order always matches version
// order).
type WAL struct {
	dir  string
	opts WALOptions

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	seq     uint64 // active segment sequence number
	written int64  // bytes handed to the OS for the active segment
	synced  int64  // bytes known durable
	syncing bool   // a leader fsync is in flight
	err     error  // sticky: after any write/sync failure the log refuses work
}

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }
func ckptName(ver uint64) string    { return fmt.Sprintf("checkpoint-%016x.ckpt", ver) }
func isTempName(name string) bool   { return strings.HasSuffix(name, ".tmp") }
func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}
func isCkptName(name string) bool {
	return strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt")
}

func segmentSeq(name string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// OpenWAL opens (creating if needed) the log in dir and replays it: the
// newest valid checkpoint plus every whole record beyond it, stopping at
// the first torn record and truncating the active segment back to the last
// record boundary so appends resume cleanly. The returned Recovered state
// is exactly the committed history; an empty or fresh directory recovers to
// version 0.
func OpenWAL(dir string, opts WALOptions) (*WAL, *Recovered, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("stream: wal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: wal dir: %w", err)
	}
	var segs []uint64
	var ckpts []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case isTempName(name):
			// A rotate died before its rename; the blob is unreferenced.
			os.Remove(filepath.Join(dir, name))
		case isSegmentName(name):
			if seq, ok := segmentSeq(name); ok {
				segs = append(segs, seq)
			}
		}
		if isCkptName(name) {
			ckpts = append(ckpts, name)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Strings(ckpts) // version is zero-padded hex, so lexical = numeric

	rec := &Recovered{}
	// Newest checkpoint that decodes fully wins; a corrupt one (torn
	// rotate) falls back to the previous, whose records were not yet
	// deleted.
	for i := len(ckpts) - 1; i >= 0; i-- {
		ver, hist, err := readCheckpoint(filepath.Join(dir, ckpts[i]))
		if err == nil {
			rec.Version, rec.History = ver, hist
			break
		}
	}

	w := &WAL{dir: dir, opts: opts}
	w.cond = sync.NewCond(&w.mu)

	// Replay segments in order, keeping only records past the checkpoint.
	// The last segment is reopened for append, truncated to its valid
	// prefix.
	for i, seq := range segs {
		path := filepath.Join(dir, segmentName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: wal segment %s: %w", path, err)
		}
		valid := 0
		if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
			valid = len(walMagic)
			for valid < len(data) {
				r, n, err := DecodeWALRecord(data[valid:])
				if err != nil {
					break // torn tail: everything before it is committed
				}
				if r.Version > rec.Version {
					if r.Version != rec.Version+1 {
						return nil, nil, fmt.Errorf(
							"stream: wal segment %s: version gap (have %d, next record %d)",
							path, rec.Version, r.Version)
					}
					rec.Version = r.Version
					rec.History = append(rec.History, r.Batch...)
				}
				valid += n
			}
		}
		if i == len(segs)-1 {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, nil, fmt.Errorf("stream: wal reopen: %w", err)
			}
			if int64(valid) < int64(len(data)) {
				if err := f.Truncate(int64(valid)); err != nil {
					f.Close()
					return nil, nil, fmt.Errorf("stream: wal truncate torn tail: %w", err)
				}
			}
			if _, err := f.Seek(int64(valid), 0); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("stream: wal seek: %w", err)
			}
			w.f, w.seq = f, seq
			w.written, w.synced = int64(valid), int64(valid)
		}
	}
	if w.f == nil {
		if err := w.newSegment(1); err != nil {
			return nil, nil, err
		}
	}
	return w, rec, nil
}

// newSegment creates and fsyncs a fresh empty segment and makes it active.
// Caller holds no lock or the log lock (internal use only).
func (w *WAL) newSegment(seq uint64) error {
	path := filepath.Join(w.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: wal segment create: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return fmt.Errorf("stream: wal segment magic: %w", err)
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("stream: wal segment sync: %w", err)
		}
		syncDir(w.dir)
	}
	w.f, w.seq = f, seq
	w.written, w.synced = int64(len(walMagic)), int64(len(walMagic))
	return nil
}

// syncDir fsyncs a directory so a create/rename within it is durable.
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
	buf := AppendWALRecord(nil, version, batch)
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

// SizeExceeded reports whether the active segment has outgrown the rotation
// threshold.
func (w *WAL) SizeExceeded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written > w.opts.SegmentBytes
}

// Rotate checkpoints the full state (history in insertion order, reaching
// version) and starts a fresh segment, then deletes the superseded segments
// and checkpoints. The caller must guarantee version/history describe every
// record appended so far (the runner holds the per-graph commit lock).
// Crash-safe at every step: the checkpoint lands by atomic rename, and old
// files are only removed after the new state is durable — recovery handles
// every intermediate layout.
func (w *WAL) Rotate(version uint64, history []EdgeUpdate) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// Quiesce: wait out any in-flight leader fsync, then make the active
	// segment durable before superseding it.
	for w.syncing {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if !w.opts.NoSync && w.synced < w.written {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("stream: wal sync before rotate: %w", err)
			w.cond.Broadcast()
			return w.err
		}
		w.synced = w.written
	}
	if err := writeCheckpoint(w.dir, version, history, !w.opts.NoSync); err != nil {
		w.err = err
		w.cond.Broadcast()
		return err
	}
	oldSeq := w.seq
	oldFile := w.f
	if err := w.newSegment(oldSeq + 1); err != nil {
		w.err = err
		w.f = oldFile // keep appending to the old segment is unsafe; stay failed
		w.cond.Broadcast()
		return err
	}
	oldFile.Close()
	// The checkpoint now covers everything the old files held.
	entries, err := os.ReadDir(w.dir)
	if err == nil {
		keepCkpt := ckptName(version)
		for _, e := range entries {
			name := e.Name()
			if isSegmentName(name) {
				if seq, ok := segmentSeq(name); ok && seq <= oldSeq {
					os.Remove(filepath.Join(w.dir, name))
				}
			} else if isCkptName(name) && name != keepCkpt {
				os.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	return nil
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

// writeCheckpoint writes the state blob via temp + rename. Format: magic,
// then one framed payload (u32 len, u32 crc, u64 version, u64 edge count,
// edges) — the record framing with a 64-bit count, since a history can
// exceed one batch's cap.
func writeCheckpoint(dir string, version uint64, history []EdgeUpdate, sync bool) error {
	payload := make([]byte, 0, 16+9*len(history))
	payload = binary.LittleEndian.AppendUint64(payload, version)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(history)))
	for _, e := range history {
		payload = binary.LittleEndian.AppendUint32(payload, e.Src)
		payload = binary.LittleEndian.AppendUint32(payload, e.Dst)
		payload = append(payload, e.Weight)
	}
	buf := make([]byte, 0, len(ckptMagic)+8+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crc32c))
	buf = append(buf, payload...)

	final := filepath.Join(dir, ckptName(version))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: wal checkpoint create: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: wal checkpoint write: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("stream: wal checkpoint sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: wal checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: wal checkpoint rename: %w", err)
	}
	if sync {
		syncDir(dir)
	}
	return nil
}

// readCheckpoint decodes one checkpoint file, validating magic, framing and
// CRC; any inconsistency is an error (the caller falls back to an older
// checkpoint or to replay-from-base).
func readCheckpoint(path string) (uint64, []EdgeUpdate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < len(ckptMagic)+8 || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, fmt.Errorf("stream: checkpoint %s: bad magic", path)
	}
	body := data[len(ckptMagic):]
	plen := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	if uint64(len(body)-8) < uint64(plen) || plen < 16 {
		return 0, nil, fmt.Errorf("stream: checkpoint %s: torn payload", path)
	}
	payload := body[8 : 8+plen]
	if crc32.Checksum(payload, crc32c) != sum {
		return 0, nil, fmt.Errorf("stream: checkpoint %s: checksum mismatch", path)
	}
	version := binary.LittleEndian.Uint64(payload[0:8])
	n := binary.LittleEndian.Uint64(payload[8:16])
	if uint64(plen) != 16+9*n {
		return 0, nil, fmt.Errorf("stream: checkpoint %s: edge count inconsistent", path)
	}
	hist := make([]EdgeUpdate, n)
	for i := range hist {
		off := 16 + 9*i
		hist[i] = EdgeUpdate{
			Src:    binary.LittleEndian.Uint32(payload[off : off+4]),
			Dst:    binary.LittleEndian.Uint32(payload[off+4 : off+8]),
			Weight: payload[off+8],
		}
	}
	return version, hist, nil
}
