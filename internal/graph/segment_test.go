package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeSegment encodes g with the given block target and fails the test on
// error.
func encodeSegment(t testing.TB, g *CSR, blockEdges int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSegmentBlocked(&buf, blockEdges); err != nil {
		t.Fatalf("encoding %q: %v", g.Name, err)
	}
	return buf.Bytes()
}

// checkSegmentMatches verifies every read path of s against g: shape,
// degrees, the streaming scan, and full materialization.
func checkSegmentMatches(t *testing.T, s *Segment, g *CSR) {
	t.Helper()
	if s.Name() != g.Name || s.NumVertices() != g.V || s.NumEdges() != g.E() {
		t.Fatalf("shape: got (%q, %d, %d), want (%q, %d, %d)",
			s.Name(), s.NumVertices(), s.NumEdges(), g.Name, g.V, g.E())
	}
	for u := uint32(0); u < g.V; u++ {
		if s.OutDeg(u) != g.OutDeg(u) {
			t.Fatalf("OutDeg(%d) = %d, want %d", u, s.OutDeg(u), g.OutDeg(u))
		}
	}
	var scanD []uint32
	var scanW []uint8
	next := int64(-1)
	s.ScanRows(func(src uint32, dsts []uint32, ws []uint8) {
		if int64(src) < next {
			t.Fatalf("ScanRows sources regress: %d after %d", src, next)
		}
		next = int64(src)
		scanD = append(scanD, dsts...)
		scanW = append(scanW, ws...)
	})
	if !equalRow(scanD, scanW, g.Col, g.Weight) {
		t.Fatalf("ScanRows edge stream differs from CSR")
	}
	if got := s.Load(); !reflect.DeepEqual(got, g) {
		t.Fatalf("Load() differs from original CSR:\n got %+v\nwant %+v", got, g)
	}
}

func equalRow(d []uint32, w []uint8, wantD []uint32, wantW []uint8) bool {
	if len(d) != len(wantD) || len(w) != len(wantW) {
		return false
	}
	for i := range d {
		if d[i] != wantD[i] || w[i] != wantW[i] {
			return false
		}
	}
	return true
}

func segmentTestGraphs() []*CSR {
	return []*CSR{
		FromEdges("sample", 4, sampleEdges()),
		Uniform("uniform", 500, 6, 3),
		Kronecker("kron", 8, 8, 7), // power-law: real hub rows
		WattsStrogatz("ws", 128, 4, 0.2, 5),
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, g := range segmentTestGraphs() {
		t.Run(g.Name, func(t *testing.T) {
			raw := encodeSegment(t, g, 0)
			s, err := ReadSegmentBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			checkSegmentMatches(t, s, g)
			if s.Digest() == "" {
				t.Fatal("empty digest")
			}
			// Encoding is deterministic: same graph, same bytes, same digest.
			if raw2 := encodeSegment(t, g, 0); !bytes.Equal(raw, raw2) {
				t.Fatal("encoding is not deterministic")
			}
		})
	}
}

// TestSegmentHubRowBlocking forces the degree-aware split: a tiny per-block
// edge target makes every hub row span several blocks, every read path must
// reassemble it exactly, and ScanRows must deliver its pieces adjacent and
// in edge-index order.
func TestSegmentHubRowBlocking(t *testing.T) {
	// One dominant hub (vertex 3) with a 90-edge row, plus surrounding rows
	// so blocks mix whole rows and hub pieces.
	var edges []Edge
	for i := uint32(0); i < 90; i++ {
		edges = append(edges, Edge{Src: 3, Dst: i % 64, Weight: uint8(i%250 + 1)})
	}
	for u := uint32(0); u < 64; u++ {
		edges = append(edges, Edge{Src: u, Dst: (u + 1) % 64, Weight: 9})
	}
	g := FromEdges("hub", 64, edges)
	for _, blockEdges := range []int{1, 3, 8, 17, 1024} {
		t.Run(fmt.Sprintf("block%d", blockEdges), func(t *testing.T) {
			raw := encodeSegment(t, g, blockEdges)
			s, err := ReadSegmentBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if blockEdges < 90 && s.NumBlocks() < 2 {
				t.Fatalf("NumBlocks = %d, want a hub split", s.NumBlocks())
			}
			checkSegmentMatches(t, s, g)
			var hubD []uint32
			var hubW []uint8
			pieces, prev, closed := 0, int64(-1), false
			s.ScanRows(func(src uint32, dsts []uint32, ws []uint8) {
				if src != 3 {
					closed = closed || prev == 3
					prev = int64(src)
					return
				}
				if closed {
					t.Fatalf("hub piece after row %d: pieces not adjacent", prev)
				}
				prev = 3
				pieces++
				hubD = append(hubD, dsts...)
				hubW = append(hubW, ws...)
			})
			if uint32(len(hubD)) != g.OutDeg(3) {
				t.Fatalf("hub pieces sum to %d edges, want %d", len(hubD), g.OutDeg(3))
			}
			if wantD, wantW := g.Neighbors(3); !equalRow(hubD, hubW, wantD, wantW) {
				t.Fatalf("hub pieces out of edge-index order: %v/%v, want %v/%v", hubD, hubW, wantD, wantW)
			}
			if blockEdges < 90 && pieces < 2 {
				t.Fatalf("hub row arrived in %d piece(s), want a split", pieces)
			}
		})
	}
}

// TestSegmentTruncation: every prefix of a valid segment must be rejected
// with an error, never a panic.
func TestSegmentTruncation(t *testing.T) {
	raw := encodeSegment(t, FromEdges("sample", 4, sampleEdges()), 2)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadSegmentBytes(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes: want error, got nil", cut, len(raw))
		}
	}
	if _, err := ReadSegmentBytes(raw); err != nil {
		t.Fatalf("full input: %v", err)
	}
}

// TestSegmentCorruption flips every byte of a small segment. The section
// CRCs cover the whole file except the footer's 4 pad bytes, so every flip
// must be rejected — or, in the pad, must decode to the identical graph.
func TestSegmentCorruption(t *testing.T) {
	g := FromEdges("sample", 4, sampleEdges())
	raw := encodeSegment(t, g, 2)
	padLo, padHi := len(raw)-12, len(raw)-8 // footer[52:56]
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0xff
		s, err := ReadSegmentBytes(mut)
		if err == nil {
			if i < padLo || i >= padHi {
				t.Fatalf("flip at byte %d accepted outside the footer pad", i)
			}
			checkSegmentMatches(t, s, g)
		}
	}
}

func TestSegmentFileMmap(t *testing.T) {
	g := Kronecker("kron", 8, 8, 7)
	path := filepath.Join(t.TempDir(), "kron"+".pseg")
	if err := g.WriteSegmentFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkSegmentMatches(t, s, g)
	if s.SizeBytes() == 0 || s.DataBytes() == 0 {
		t.Fatal("zero sizes")
	}
}

// TestWriteSegmentRejectsInvalid: the encoder validates before writing, so
// a corrupt CSR cannot produce a (then verified and trusted) segment.
func TestWriteSegmentRejectsInvalid(t *testing.T) {
	g := FromEdges("bad", 4, sampleEdges())
	g.Col[0] = 99 // out of range
	var buf bytes.Buffer
	if err := g.WriteSegment(&buf); err == nil ||
		!strings.Contains(err.Error(), "invalid graph") {
		t.Fatalf("want invalid-graph error, got %v", err)
	}
}

// hugeVertexSegment is a well-framed segment whose header claims
// V = MaxUint32 with no rowptr payload. Every CRC holds, so the reader
// must reject it on section sizes alone, before allocating for the claim.
func hugeVertexSegment(t testing.TB) []byte {
	raw := encodeSegment(t, FromEdges("", 0, nil), 0)
	binary.LittleEndian.PutUint32(raw[12:], math.MaxUint32) // empty name: V follows nameLen
	foot := raw[len(raw)-segFooterSize:]
	head := raw[:binary.LittleEndian.Uint64(foot[0:])]
	binary.LittleEndian.PutUint32(foot[32:], crc32.Checksum(head, segCRC))
	binary.LittleEndian.PutUint32(foot[48:], crc32.Checksum(foot[:48], segCRC))
	return raw
}

// FuzzSegmentDecode fuzzes the segment reader. Invariants: never panic,
// never allocate past the bytes present, reject malformed input with an
// error, and any accepted input must serve consistent reads (scan total
// equals the header edge count, each source's ScanRows pieces sum to its
// OutDeg) and survive a re-encode bit for bit.
func FuzzSegmentDecode(f *testing.F) {
	for _, g := range segmentTestGraphs() {
		for _, blockEdges := range []int{0, 3} {
			var buf bytes.Buffer
			if err := g.WriteSegmentBlocked(&buf, blockEdges); err != nil {
				f.Fatalf("seed %q: %v", g.Name, err)
			}
			seed := buf.Bytes()
			f.Add(seed)
			f.Add(seed[:len(seed)/2])
			corrupt := bytes.Clone(seed)
			corrupt[len(corrupt)/3] ^= 0xff
			f.Add(corrupt)
		}
	}
	f.Add([]byte(segMagic))
	f.Add([]byte(segFooterMagic))
	huge := hugeVertexSegment(f)
	if _, err := ReadSegmentBytes(huge); err == nil {
		f.Fatal("segment claiming V = MaxUint32 with no rowptr accepted")
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSegmentBytes(data)
		if err != nil {
			return // malformed input rejected: the invariant we want
		}
		var total uint64
		rowLen := make([]uint32, s.NumVertices())
		s.ScanRows(func(src uint32, dsts []uint32, ws []uint8) {
			total += uint64(len(dsts))
			rowLen[src] += uint32(len(dsts))
			if len(ws) != len(dsts) {
				t.Fatalf("row piece of %d: %d weights for %d dsts", src, len(ws), len(dsts))
			}
		})
		if total != s.NumEdges() {
			t.Fatalf("scan visits %d edges, header says %d", total, s.NumEdges())
		}
		g := s.Load()
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted segment loads an invalid graph: %v", verr)
		}
		for u, n := range rowLen {
			if n != s.OutDeg(uint32(u)) {
				t.Fatalf("row %d pieces sum to %d edges, OutDeg says %d", u, n, s.OutDeg(uint32(u)))
			}
		}
		var re bytes.Buffer
		if werr := g.WriteSegment(&re); werr != nil {
			t.Fatalf("re-encoding accepted segment: %v", werr)
		}
		s2, rerr := ReadSegmentBytes(re.Bytes())
		if rerr != nil {
			t.Fatalf("re-reading re-encoded segment: %v", rerr)
		}
		if g2 := s2.Load(); !reflect.DeepEqual(g, g2) {
			t.Fatalf("round trip changed the graph:\n got %+v\nwant %+v", g2, g)
		}
	})
}

// BenchmarkSegmentScan measures the streaming decode rate — the cost the
// engine pays per ScanRows build pass over a segment-backed graph.
func BenchmarkSegmentScan(b *testing.B) {
	g := Kronecker("kron", 14, 8, 1)
	raw := encodeSegment(b, g, 0)
	s, err := ReadSegmentBytes(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.DataBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		s.ScanRows(func(_ uint32, dsts []uint32, _ []uint8) {
			sink += uint64(len(dsts))
		})
	}
	_ = sink
}
