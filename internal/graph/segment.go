package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync/atomic"
)

// On-disk compressed segment format PICSEG01 (DESIGN.md §14): the CSR as a
// fixed-width mmap-able RowPtr array plus delta-varint compressed adjacency
// rows, blocked degree-aware so hub rows split into cache-sized pieces, all
// CRC-framed. Little-endian throughout.
//
//	header:
//	  magic      [8]byte "PICSEG01"
//	  nameLen    uint32
//	  name       nameLen bytes
//	  v          uint32
//	  e          uint64
//	  nBlocks    uint32
//	  blockEdges uint32          encoder's per-block edge target (informational)
//	  padding to an 8-byte boundary
//	rowptr:  (v+1) × uint64      fixed-width: OutDeg needs two loads, no decode
//	blkidx:  nBlocks × 24 bytes  {srcLo u32, srcHi u32, off u64, len u32, edges u32}
//	data:    concatenated compressed blocks (off is relative to this section)
//	footer (64 bytes, at end of file):
//	  rowPtrOff, blkIdxOff, dataOff, dataLen   4 × uint64
//	  crcHeader, crcRowPtr, crcBlkIdx, crcData 4 × uint32 (CRC32-Castagnoli per section)
//	  footerCRC  uint32          CRC32C of footer[0:48]
//	  pad        uint32
//	  magic      [8]byte "PICSEGF1"
//
// Block payload: a run of row pieces in ascending (source, edge-index)
// order. The first piece's source is the index entry's srcLo; each later
// piece stores the gap to the previous source (≥ 1 — one source never has
// two pieces in the same block). A piece is
//
//	[srcGap uvarint]  cnt uvarint  dst₀ uvarint  (cnt-1) × dstGap uvarint  cnt × weight byte
//
// with dstGap ≥ 0 (rows are sorted by destination and multi-edges are
// legal). Rows longer than the block target split across consecutive
// blocks — that is the degree-aware blocking: a hub row decodes in
// cache-sized chunks instead of one multi-megabyte row.
const (
	segMagic       = "PICSEG01"
	segFooterMagic = "PICSEGF1"
	segFooterSize  = 64
	segIdxEntry    = 24
)

// DefaultSegmentBlockEdges is the encoder's per-block edge target: 4096
// edges decode to ~20 KB of (dst, weight) pairs — comfortably inside L2, the
// same working-set budget as the pull tiling (PullTileWidth).
const DefaultSegmentBlockEdges = 4096

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// WriteSegment encodes g into the PICSEG01 segment format with the default
// block target.
func (g *CSR) WriteSegment(w io.Writer) error {
	return g.WriteSegmentBlocked(w, DefaultSegmentBlockEdges)
}

// WriteSegmentBlocked is WriteSegment with an explicit per-block edge
// target (tests use tiny targets to force hub-row splits); blockEdges <= 0
// selects the default.
func (g *CSR) WriteSegmentBlocked(w io.Writer, blockEdges int) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: refusing to encode invalid graph: %w", err)
	}
	if blockEdges <= 0 {
		blockEdges = DefaultSegmentBlockEdges
	}
	if len(g.Name) > 1<<16 {
		return fmt.Errorf("graph: name too long to encode (%d bytes)", len(g.Name))
	}

	// Compress the adjacency into blocks.
	var (
		data    []byte
		idx     []byte
		nBlocks uint32
		scratch [binary.MaxVarintLen64]byte
	)
	var blkStart uint64 // data offset of the open block
	var blkSrcLo, blkSrcHi, blkEdges uint32
	open := false
	flush := func() {
		if !open {
			return
		}
		var ent [segIdxEntry]byte
		binary.LittleEndian.PutUint32(ent[0:], blkSrcLo)
		binary.LittleEndian.PutUint32(ent[4:], blkSrcHi)
		binary.LittleEndian.PutUint64(ent[8:], blkStart)
		binary.LittleEndian.PutUint32(ent[16:], uint32(uint64(len(data))-blkStart))
		binary.LittleEndian.PutUint32(ent[20:], blkEdges)
		idx = append(idx, ent[:]...)
		nBlocks++
		open = false
	}
	putUv := func(x uint64) {
		n := binary.PutUvarint(scratch[:], x)
		data = append(data, scratch[:n]...)
	}
	for u := uint32(0); u < g.V; u++ {
		dsts, ws := g.Neighbors(u)
		for i := 0; i < len(dsts); {
			space := blockEdges - int(blkEdges)
			if !open || space == 0 {
				flush()
				blkStart = uint64(len(data))
				blkSrcLo, blkSrcHi, blkEdges = u, u, 0
				open = true
				space = blockEdges
			} else {
				putUv(uint64(u - blkSrcHi)) // srcGap ≥ 1: a row re-entering a block is impossible
				blkSrcHi = u
			}
			take := len(dsts) - i
			if take > space {
				take = space
			}
			putUv(uint64(take))
			putUv(uint64(dsts[i]))
			for j := i + 1; j < i+take; j++ {
				putUv(uint64(dsts[j] - dsts[j-1]))
			}
			data = append(data, ws[i:i+take]...)
			blkEdges += uint32(take)
			i += take
		}
	}
	flush()

	// Assemble header and section offsets.
	head := make([]byte, 0, 40+len(g.Name))
	head = append(head, segMagic...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(g.Name)))
	head = append(head, g.Name...)
	head = binary.LittleEndian.AppendUint32(head, g.V)
	head = binary.LittleEndian.AppendUint64(head, g.E())
	head = binary.LittleEndian.AppendUint32(head, nBlocks)
	head = binary.LittleEndian.AppendUint32(head, uint32(blockEdges))
	for len(head) < align8(len(head)) {
		head = append(head, 0)
	}

	rowPtrOff := uint64(len(head))
	rowptr := make([]byte, (uint64(g.V)+1)*8)
	for i, p := range g.RowPtr {
		binary.LittleEndian.PutUint64(rowptr[i*8:], p)
	}
	blkIdxOff := rowPtrOff + uint64(len(rowptr))
	dataOff := blkIdxOff + uint64(len(idx))

	var foot []byte
	foot = binary.LittleEndian.AppendUint64(foot, rowPtrOff)
	foot = binary.LittleEndian.AppendUint64(foot, blkIdxOff)
	foot = binary.LittleEndian.AppendUint64(foot, dataOff)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(data)))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(head, segCRC))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(rowptr, segCRC))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(idx, segCRC))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(data, segCRC))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(foot, segCRC))
	foot = binary.LittleEndian.AppendUint32(foot, 0)
	foot = append(foot, segFooterMagic...)

	for _, sec := range [][]byte{head, rowptr, idx, data, foot} {
		if _, err := w.Write(sec); err != nil {
			return err
		}
	}
	return nil
}

// WriteSegmentFile writes g to path in the segment format.
func (g *CSR) WriteSegmentFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteSegment(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Segment is an opened PICSEG01 file: a GraphStore serving OutDeg straight
// from the fixed-width RowPtr section and adjacency rows by decoding
// delta-varint blocks on demand into caller-owned RowBufs. Open validates
// everything once (CRCs, structure, a full decode pass), so a Segment in
// hand is known-good; the backing bytes must not be mutated afterwards.
// Safe for concurrent readers (it is immutable); Close unmaps/releases the
// backing bytes and must not race in-flight reads.
type Segment struct {
	name        string
	v           uint32
	e           uint64
	nBlocks     int
	blockTarget uint32

	data   []byte // whole file
	rowptr []byte // fixed-width RowPtr section
	blkIdx []byte // block index section
	blocks []byte // compressed block data

	digest string
	unmap  func() error

	// decodedBlocks and decodedEdges count the blocks, and the edges in
	// them, decoded since the segment was opened (Decoded).
	decodedBlocks, decodedEdges atomic.Uint64
}

// OpenSegment opens and fully validates a segment file, preferring an mmap
// of the file (the out-of-core path: adjacency stays on disk, pages fault
// in as blocks decode) and falling back to reading it into memory where
// mmap is unavailable.
func OpenSegment(path string) (*Segment, error) {
	if data, unmap, err := mmapFile(path); err == nil {
		s, perr := ReadSegmentBytes(data)
		if perr != nil {
			unmap()
			return nil, fmt.Errorf("graph: segment %s: %w", path, perr)
		}
		s.unmap = unmap
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, perr := ReadSegmentBytes(data)
	if perr != nil {
		return nil, fmt.Errorf("graph: segment %s: %w", path, perr)
	}
	return s, nil
}

// ReadSegmentBytes parses and fully validates a segment from data, which
// the returned Segment aliases (mmap hands us exactly this shape). Like
// graph.Read it is hardened against arbitrary input: malformed bytes —
// bad magics, lying offsets, corrupt CRCs, inconsistent varint streams —
// return an error, never a panic, and allocation stays proportional to the
// bytes actually present (FuzzSegmentDecode exercises both properties).
func ReadSegmentBytes(data []byte) (*Segment, error) {
	size := uint64(len(data))
	if size < segFooterSize+uint64(len(segMagic)) {
		return nil, fmt.Errorf("segment: %d bytes, smaller than any valid segment", size)
	}
	foot := data[size-segFooterSize:]
	if string(foot[56:64]) != segFooterMagic {
		return nil, fmt.Errorf("segment: bad footer magic %q", foot[56:64])
	}
	if got, want := crc32.Checksum(foot[:48], segCRC), binary.LittleEndian.Uint32(foot[48:]); got != want {
		return nil, fmt.Errorf("segment: footer crc %08x, want %08x", got, want)
	}
	rowPtrOff := binary.LittleEndian.Uint64(foot[0:])
	blkIdxOff := binary.LittleEndian.Uint64(foot[8:])
	dataOff := binary.LittleEndian.Uint64(foot[16:])
	dataLen := binary.LittleEndian.Uint64(foot[24:])
	bodyEnd := size - segFooterSize
	if rowPtrOff > blkIdxOff || blkIdxOff > dataOff || dataOff > bodyEnd ||
		dataLen != bodyEnd-dataOff {
		return nil, fmt.Errorf("segment: inconsistent section offsets %d/%d/%d+%d in %d-byte file",
			rowPtrOff, blkIdxOff, dataOff, dataLen, size)
	}
	head, rowptr := data[:rowPtrOff], data[rowPtrOff:blkIdxOff]
	blkIdx, blocks := data[blkIdxOff:dataOff], data[dataOff:bodyEnd]
	for i, sec := range [][]byte{head, rowptr, blkIdx, blocks} {
		if got, want := crc32.Checksum(sec, segCRC), binary.LittleEndian.Uint32(foot[32+4*i:]); got != want {
			return nil, fmt.Errorf("segment: section %d crc %08x, want %08x", i, got, want)
		}
	}

	// Header.
	if len(head) < len(segMagic)+4 || string(head[:8]) != segMagic {
		return nil, fmt.Errorf("segment: bad magic")
	}
	nameLen := binary.LittleEndian.Uint32(head[8:])
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("segment: unreasonable name length %d", nameLen)
	}
	rest := head[12:]
	if uint64(len(rest)) < uint64(nameLen)+20 {
		return nil, fmt.Errorf("segment: truncated header")
	}
	name := string(rest[:nameLen])
	rest = rest[nameLen:]
	s := &Segment{
		name:        name,
		v:           binary.LittleEndian.Uint32(rest[0:]),
		e:           binary.LittleEndian.Uint64(rest[4:]),
		nBlocks:     int(binary.LittleEndian.Uint32(rest[12:])),
		blockTarget: binary.LittleEndian.Uint32(rest[16:]),
		data:        data,
		rowptr:      rowptr,
		blkIdx:      blkIdx,
		blocks:      blocks,
	}
	if s.e > 1<<34 {
		return nil, fmt.Errorf("segment: unreasonable edge count %d", s.e)
	}
	if uint64(len(rowptr)) != (uint64(s.v)+1)*8 {
		return nil, fmt.Errorf("segment: rowptr section is %d bytes, want %d for V=%d",
			len(rowptr), (uint64(s.v)+1)*8, s.v)
	}
	if uint64(len(blkIdx)) != uint64(s.nBlocks)*segIdxEntry {
		return nil, fmt.Errorf("segment: block index is %d bytes, want %d for %d blocks",
			len(blkIdx), uint64(s.nBlocks)*segIdxEntry, s.nBlocks)
	}

	// RowPtr invariants (monotone prefix sums covering exactly e edges).
	if s.rowPtrAt(0) != 0 {
		return nil, fmt.Errorf("segment: rowptr[0] = %d, want 0", s.rowPtrAt(0))
	}
	for u := uint32(0); u < s.v; u++ {
		if s.rowPtrAt(u) > s.rowPtrAt(u+1) {
			return nil, fmt.Errorf("segment: rowptr not monotone at vertex %d", u)
		}
	}
	if s.rowPtrAt(s.v) != s.e {
		return nil, fmt.Errorf("segment: rowptr[V] = %d, want %d", s.rowPtrAt(s.v), s.e)
	}

	if err := s.verifyBlocks(); err != nil {
		return nil, err
	}
	// The verification pass is the price of opening, not of any read.
	s.decodedBlocks.Store(0)
	s.decodedEdges.Store(0)
	sum := sha256.Sum256(data)
	s.digest = hex.EncodeToString(sum[:])
	return s, nil
}

// verifyBlocks decodes every block once, checking that the block index and
// the varint streams describe exactly the edge set RowPtr promises, in
// ascending (source, edge-index) order. After this pass a decode can fail
// only if the backing bytes are mutated, which Row treats as a programming
// error (panic with a clear message) rather than a recoverable condition.
func (s *Segment) verifyBlocks() error {
	var buf RowBuf
	buf.reset()
	var edgeCursor uint64
	lastSrc := int64(-1)
	for b := 0; b < s.nBlocks; b++ {
		srcLo, srcHi, _, _, edges := s.blockMeta(b)
		if srcLo > srcHi || srcHi >= s.v {
			return fmt.Errorf("segment: block %d source range [%d,%d] out of bounds (V=%d)", b, srcLo, srcHi, s.v)
		}
		if err := s.decodeBlock(b, &buf); err != nil {
			return err
		}
		var blockEdges uint64
		for i, src := range buf.srcs {
			cnt := uint64(buf.starts[i+1] - buf.starts[i])
			blockEdges += cnt
			// Pieces must tile the rows exactly: a piece opening a new row
			// must start at that row's RowPtr offset (everything before it
			// complete), stay inside the row, and sources never go back.
			if int64(src) < lastSrc {
				return fmt.Errorf("segment: block %d sources regress (%d after %d)", b, src, lastSrc)
			}
			if int64(src) > lastSrc && edgeCursor != s.rowPtrAt(src) {
				return fmt.Errorf("segment: block %d row %d starts at edge %d, rowptr says %d",
					b, src, edgeCursor, s.rowPtrAt(src))
			}
			if edgeCursor+cnt > s.rowPtrAt(src+1) {
				return fmt.Errorf("segment: block %d row %d overruns its rowptr range", b, src)
			}
			for _, d := range buf.dsts[buf.starts[i]:buf.starts[i+1]] {
				if d >= s.v {
					return fmt.Errorf("segment: block %d edge to %d out of range (V=%d)", b, d, s.v)
				}
			}
			lastSrc = int64(src)
			edgeCursor += cnt
		}
		if blockEdges != uint64(edges) {
			return fmt.Errorf("segment: block %d decodes %d edges, index says %d", b, blockEdges, edges)
		}
		if len(buf.srcs) == 0 || buf.srcs[0] != srcLo || buf.srcs[len(buf.srcs)-1] != srcHi {
			return fmt.Errorf("segment: block %d sources disagree with index range [%d,%d]", b, srcLo, srcHi)
		}
	}
	if edgeCursor != s.e {
		return fmt.Errorf("segment: blocks decode %d edges, header says %d", edgeCursor, s.e)
	}
	return nil
}

// Name returns the embedded graph name.
func (s *Segment) Name() string { return s.name }

// NumVertices returns the vertex count.
func (s *Segment) NumVertices() uint32 { return s.v }

// NumEdges returns the directed edge count.
func (s *Segment) NumEdges() uint64 { return s.e }

// NumBlocks returns the number of compressed adjacency blocks.
func (s *Segment) NumBlocks() int { return s.nBlocks }

// DataBytes returns the compressed adjacency payload size — with the fixed
// RowPtr this is the number the compression arithmetic in DESIGN.md §14
// compares against the CSR's 4·E+E raw bytes.
func (s *Segment) DataBytes() uint64 { return uint64(len(s.blocks)) }

// SizeBytes returns the whole file's size.
func (s *Segment) SizeBytes() uint64 { return uint64(len(s.data)) }

// Digest returns the SHA-256 of the file bytes — the content address the
// runner keys caches on (two segments with equal digests are the same
// graph byte for byte).
func (s *Segment) Digest() string { return s.digest }

// Decoded returns how many blocks, holding how many edges, readers have
// decoded since the segment was opened (open-time verification excluded).
// Every Row and ScanRows call that leaves its buffer's memoized block
// decodes one; a reader that keeps what it decoded — the engine's indexes —
// stops moving these once it is warm, and a reader that fetches single rows
// moves them by a whole block per row.
func (s *Segment) Decoded() (blocks, edges uint64) {
	return s.decodedBlocks.Load(), s.decodedEdges.Load()
}

// Mapped reports whether the segment is backed by an mmap (as opposed to a
// heap copy).
func (s *Segment) Mapped() bool { return s.unmap != nil }

// Close releases the backing bytes (munmap when mapped). The Segment must
// not be used afterwards.
func (s *Segment) Close() error {
	s.rowptr, s.blkIdx, s.blocks, s.data = nil, nil, nil, nil
	if s.unmap != nil {
		u := s.unmap
		s.unmap = nil
		return u()
	}
	return nil
}

// rowPtrAt reads RowPtr[i] from the fixed-width section.
func (s *Segment) rowPtrAt(i uint32) uint64 {
	return binary.LittleEndian.Uint64(s.rowptr[uint64(i)*8:])
}

// OutDeg returns the out-degree of u: two loads from the mmap'd RowPtr, no
// adjacency decode.
func (s *Segment) OutDeg(u uint32) uint32 {
	return uint32(s.rowPtrAt(u+1) - s.rowPtrAt(u))
}

// blockMeta unpacks block b's index entry.
func (s *Segment) blockMeta(b int) (srcLo, srcHi uint32, off uint64, ln, edges uint32) {
	ent := s.blkIdx[b*segIdxEntry:]
	return binary.LittleEndian.Uint32(ent[0:]),
		binary.LittleEndian.Uint32(ent[4:]),
		binary.LittleEndian.Uint64(ent[8:]),
		binary.LittleEndian.Uint32(ent[16:]),
		binary.LittleEndian.Uint32(ent[20:])
}

// decodeBlock decodes block b into buf's memo arrays. It returns an error
// only for inconsistent bytes — impossible for a verified segment unless
// the backing file was mutated.
func (s *Segment) decodeBlock(b int, buf *RowBuf) error {
	srcLo, _, off, ln, edges := s.blockMeta(b)
	if off > uint64(len(s.blocks)) || uint64(ln) > uint64(len(s.blocks))-off {
		return fmt.Errorf("segment: block %d data range %d+%d outside payload (%d bytes)", b, off, ln, len(s.blocks))
	}
	p := s.blocks[off : off+uint64(ln)]
	buf.blk = 0
	buf.srcs, buf.starts = buf.srcs[:0], buf.starts[:0]
	buf.dsts, buf.ws = buf.dsts[:0], buf.ws[:0]
	buf.starts = append(buf.starts, 0)

	src := uint64(srcLo)
	first := true
	var done uint32
	for done < edges {
		if !first {
			gap, n := binary.Uvarint(p)
			if n <= 0 || gap == 0 {
				return fmt.Errorf("segment: block %d: bad source gap", b)
			}
			p = p[n:]
			src += gap
		}
		first = false
		if src >= uint64(s.v) {
			return fmt.Errorf("segment: block %d: source %d out of range (V=%d)", b, src, s.v)
		}
		cnt, n := binary.Uvarint(p)
		if n <= 0 || cnt == 0 || cnt > uint64(len(p)) || uint32(cnt) > edges-done {
			return fmt.Errorf("segment: block %d: bad piece count", b)
		}
		p = p[n:]
		dst, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("segment: block %d: bad first destination", b)
		}
		p = p[n:]
		buf.dsts = append(buf.dsts, uint32(dst))
		for j := uint64(1); j < cnt; j++ {
			gap, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("segment: block %d: bad destination gap", b)
			}
			p = p[n:]
			dst += gap
			if dst > uint64(s.v) {
				return fmt.Errorf("segment: block %d: destination %d out of range", b, dst)
			}
			buf.dsts = append(buf.dsts, uint32(dst))
		}
		if uint64(len(p)) < cnt {
			return fmt.Errorf("segment: block %d: truncated weights", b)
		}
		buf.ws = append(buf.ws, p[:cnt]...)
		p = p[cnt:]
		buf.srcs = append(buf.srcs, uint32(src))
		buf.starts = append(buf.starts, uint32(len(buf.dsts)))
		done += uint32(cnt)
	}
	if len(p) != 0 {
		return fmt.Errorf("segment: block %d: %d trailing bytes", b, len(p))
	}
	buf.blk = b + 1
	s.decodedBlocks.Add(1)
	s.decodedEdges.Add(uint64(edges))
	return nil
}

// findBlock returns the first block whose source range contains u. The
// caller guarantees u has at least one edge.
func (s *Segment) findBlock(u uint32) int {
	return sort.Search(s.nBlocks, func(b int) bool {
		_, srcHi, _, _, _ := s.blockMeta(b)
		return srcHi >= u
	})
}

// mutated reports decode failure on a verified segment — the backing bytes
// changed after Open, which is a caller contract violation, not a
// recoverable input error.
func (s *Segment) mutated(err error) {
	panic(fmt.Sprintf("graph: verified segment %q failed to decode (backing file mutated after open?): %v", s.name, err))
}

// Row decodes vertex u's full out-edge row into buf and returns it in
// ascending (dst, edge-index) order. Consecutive calls with ascending u hit
// buf's block memo, so a sorted frontier scan decodes each block once. The
// returned slices are valid until the next Row call with the same buf.
func (s *Segment) Row(u uint32, buf *RowBuf) ([]uint32, []uint8) {
	deg := s.OutDeg(u)
	if deg == 0 {
		return nil, nil
	}
	b := s.findBlock(u)
	if buf.blk != b+1 {
		if err := s.decodeBlock(b, buf); err != nil {
			s.mutated(err)
		}
	}
	i := sort.Search(len(buf.srcs), func(i int) bool { return buf.srcs[i] >= u })
	if i == len(buf.srcs) || buf.srcs[i] != u {
		s.mutated(fmt.Errorf("row %d missing from block %d", u, b))
	}
	lo, hi := buf.starts[i], buf.starts[i+1]
	if uint32(hi-lo) == deg {
		return buf.dsts[lo:hi], buf.ws[lo:hi]
	}
	// Hub row: the tail lives in the following blocks. Reassemble into the
	// spill buffers (the block memo is overwritten along the way).
	buf.spillDst = append(buf.spillDst[:0], buf.dsts[lo:hi]...)
	buf.spillW = append(buf.spillW[:0], buf.ws[lo:hi]...)
	for nb := b + 1; uint32(len(buf.spillDst)) < deg; nb++ {
		if nb >= s.nBlocks {
			s.mutated(fmt.Errorf("row %d ends before reaching degree %d", u, deg))
		}
		if err := s.decodeBlock(nb, buf); err != nil {
			s.mutated(err)
		}
		if len(buf.srcs) == 0 || buf.srcs[0] != u {
			s.mutated(fmt.Errorf("row %d continuation missing from block %d", u, nb))
		}
		hi := buf.starts[1]
		buf.spillDst = append(buf.spillDst, buf.dsts[:hi]...)
		buf.spillW = append(buf.spillW, buf.ws[:hi]...)
	}
	return buf.spillDst, buf.spillW
}

// ScanRows decodes every block in order, emitting row pieces in ascending
// (source, edge-index) order — the reference fold order every consumer in
// internal/engine pins.
func (s *Segment) ScanRows(fn func(src uint32, dsts []uint32, ws []uint8)) {
	var buf RowBuf
	buf.reset()
	for b := 0; b < s.nBlocks; b++ {
		if err := s.decodeBlock(b, &buf); err != nil {
			s.mutated(err)
		}
		for i, src := range buf.srcs {
			fn(src, buf.dsts[buf.starts[i]:buf.starts[i+1]], buf.ws[buf.starts[i]:buf.starts[i+1]])
		}
	}
}

// Load materializes the segment into an in-RAM CSR (differential tests and
// tools that need random-access arrays; the serving path never calls it).
func (s *Segment) Load() *CSR {
	g := &CSR{
		Name:   s.name,
		V:      s.v,
		RowPtr: make([]uint64, uint64(s.v)+1),
		Col:    make([]uint32, 0, s.e),
		Weight: make([]uint8, 0, s.e),
	}
	for i := range g.RowPtr {
		g.RowPtr[i] = s.rowPtrAt(uint32(i))
	}
	s.ScanRows(func(_ uint32, dsts []uint32, ws []uint8) {
		g.Col = append(g.Col, dsts...)
		g.Weight = append(g.Weight, ws...)
	})
	return g
}
