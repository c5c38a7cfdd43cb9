package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// maxBatchEdges is the most edges DecodeBatch accepts in one batch.
const maxBatchEdges = 1 << 16

// wireEdge is the JSON form of one EdgeUpdate. Pointers distinguish absent
// fields from explicit zeros: src and dst are required; weight defaults to
// 1 when omitted and must be in [1, 255] when present.
type wireEdge struct {
	Src    *int64 `json:"src"`
	Dst    *int64 `json:"dst"`
	Weight *int64 `json:"weight"`
}

// DecodeBatch parses the JSON wire form of an update batch — an array of
// {"src": u, "dst": v, "weight": w} objects, the value of the "edges"
// field in piccolo-serve's POST /update body — and validates every field
// range that does not require the graph (vertex bounds are the Overlay's
// job, since only it knows V). Unknown fields, trailing data, missing
// src/dst, out-of-range ids, weights outside [1, 255] and more than
// maxBatchEdges edges are all errors; the decoder never panics on any input
// (FuzzDecodeBatch).
func DecodeBatch(data []byte) ([]EdgeUpdate, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire []wireEdge
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("stream: decoding update batch: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("stream: trailing data after update batch")
	}
	if len(wire) == 0 {
		return nil, fmt.Errorf("stream: empty update batch")
	}
	if len(wire) > maxBatchEdges {
		return nil, fmt.Errorf("stream: update batch of %d edges exceeds the %d cap", len(wire), maxBatchEdges)
	}
	out := make([]EdgeUpdate, len(wire))
	for i, e := range wire {
		if e.Src == nil || e.Dst == nil {
			return nil, fmt.Errorf("stream: update %d: missing src or dst", i)
		}
		if *e.Src < 0 || *e.Src > math.MaxUint32 || *e.Dst < 0 || *e.Dst > math.MaxUint32 {
			return nil, fmt.Errorf("stream: update %d: vertex id out of range", i)
		}
		w := int64(1)
		if e.Weight != nil {
			w = *e.Weight
		}
		if w < 1 || w > 255 {
			return nil, fmt.Errorf("stream: update %d: weight %d out of range (want 1..255)", i, w)
		}
		out[i] = EdgeUpdate{Src: uint32(*e.Src), Dst: uint32(*e.Dst), Weight: uint8(w)}
	}
	return out, nil
}

// EncodeBatch is DecodeBatch's inverse, used by tests and the fuzz
// round-trip invariant.
func EncodeBatch(batch []EdgeUpdate) []byte {
	type outEdge struct {
		Src    uint32 `json:"src"`
		Dst    uint32 `json:"dst"`
		Weight uint8  `json:"weight"`
	}
	wire := make([]outEdge, len(batch))
	for i, e := range batch {
		wire[i] = outEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	data, err := json.Marshal(wire)
	if err != nil {
		// Plain value structs; encoding cannot fail.
		panic(fmt.Sprintf("stream: encoding batch: %v", err))
	}
	return data
}
