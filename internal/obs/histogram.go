package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear latency histogram over integer
// nanoseconds. Buckets are power-of-two octaves split into 2^subBits
// linear sub-buckets, so any recorded value is attributed to a bucket
// whose width is at most 1/2^subBits of its magnitude — quantiles read
// back from a snapshot are within ~3.2% relative error of the exact
// order statistic (histogram_test.go pins this bound against a sorted
// sample). Observe is two atomic adds; there is no lock anywhere, so
// concurrent recorders scale and a scrape never stalls the hot path.
//
// Snapshots merge associatively (Merge just sums buckets), which is what
// lets per-shard, per-endpoint and even cross-process (piccolo-load
// client-side vs piccolo-serve server-side) distributions combine into
// one distribution rather than an average of quantiles — averaging p99s
// is the classic observability mistake this type exists to avoid.
type Histogram struct {
	buckets [nBuckets]atomic.Uint64
	sum     atomic.Uint64
}

const (
	// subBits sub-buckets per octave: 2^5 = 32 → ≤ 1/32 ≈ 3.1% relative
	// bucket width.
	subBits = 5
	sub     = 1 << subBits
	// Values are int64 nanoseconds clamped non-negative: at most 63
	// significant bits → exponents 0..63-1-subBits, plus the sub exact
	// buckets for values < sub.
	maxExp   = 63 - 1 - subBits
	nBuckets = sub * (maxExp + 2) // sub exact + (maxExp+1) octaves × sub
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Values < sub get exact unit
// buckets; larger values index (octave, mantissa-top-subBits).
func bucketIndex(v uint64) int {
	if v < sub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return sub*(exp+1) + int((v>>uint(exp))&(sub-1))
}

// bucketMax returns the largest value mapped to bucket i (the inclusive
// upper bound quantiles report).
func bucketMax(i int) uint64 {
	if i < sub {
		return uint64(i)
	}
	exp := uint(i/sub - 1)
	m := uint64(i%sub) + sub
	return ((m + 1) << exp) - 1
}

// Observe records one value (nanoseconds; negative values clamp to 0).
func (h *Histogram) Observe(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot returns a point-in-time copy of the distribution. Counts and
// Sum are read without a global lock, so under concurrent recording the
// snapshot is a consistent-enough view (each bucket individually exact;
// Sum may lead or trail the bucket totals by in-flight observations) —
// fine for monitoring, and exact once recorders quiesce.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Counts: make([]uint64, nBuckets)}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable copy of a histogram's state. The zero
// value (nil Counts) is a valid empty snapshot.
type HistSnapshot struct {
	Counts []uint64 // len nBuckets when non-empty
	Count  uint64
	Sum    uint64
}

// Merge folds other into s (associative, commutative). Either side may be
// empty.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil || other.Count == 0 && other.Sum == 0 {
		return
	}
	if s.Counts == nil {
		s.Counts = make([]uint64, nBuckets)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Sub returns the distribution of observations recorded after prev was
// taken: s minus prev, bucket-wise. Both snapshots must come from the
// same (or merged-identically) histograms, with prev the earlier one;
// counts only grow, so element-wise saturating subtraction is exact.
// This turns cumulative histograms into windowed ones — the admission
// controller's "p99 over the last window" is Sub of two scrapes, not a
// quantile of the process lifetime. Either side may be empty; s is not
// modified.
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	out := &HistSnapshot{}
	if s == nil || s.Count == 0 && s.Sum == 0 {
		return out
	}
	out.Counts = make([]uint64, nBuckets)
	copy(out.Counts, s.Counts)
	out.Count, out.Sum = s.Count, s.Sum
	if prev == nil {
		return out
	}
	for i, c := range prev.Counts {
		if out.Counts[i] >= c {
			out.Counts[i] -= c
		} else {
			out.Counts[i] = 0
		}
	}
	if out.Count >= prev.Count {
		out.Count -= prev.Count
	} else {
		out.Count = 0
	}
	if out.Sum >= prev.Sum {
		out.Sum -= prev.Sum
	} else {
		out.Sum = 0
	}
	return out
}

// Quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the upper
// bound of the bucket containing the ceil(q×Count)-th smallest
// observation, i.e. within one bucket width (~3.2% relative) above the
// exact order statistic. Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	target := uint64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return int64(bucketMax(i))
		}
	}
	return int64(bucketMax(nBuckets - 1))
}

// mean returns the arithmetic mean in nanoseconds (0 when empty).
func (s *HistSnapshot) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// LatencySummary is the fixed quantile set every layer reports
// (DESIGN.md §11), in milliseconds for human consumption.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Summary computes the standard quantile set from the snapshot.
func (s *HistSnapshot) Summary() LatencySummary {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LatencySummary{
		Count:  s.Count,
		MeanMS: s.mean() / 1e6,
		P50MS:  ms(s.Quantile(0.50)),
		P90MS:  ms(s.Quantile(0.90)),
		P99MS:  ms(s.Quantile(0.99)),
		P999MS: ms(s.Quantile(0.999)),
		MaxMS:  ms(s.Quantile(1)),
	}
}
