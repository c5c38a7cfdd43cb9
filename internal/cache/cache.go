// Package cache implements the on-chip memory designs evaluated in the
// paper (Fig. 11). Piccolo-cache (§V: split tag/fg-tag, way partitioning,
// LRU/RRIP) has its own model; every other design is one set-associative
// LRU model set by line and fill bytes: the conventional 64B-line cache,
// the 8B-line cache, the sectored cache [54] (64B lines, 8B fills), and
// Amoeba [44], Scrabble [102] and Graphfire [60], each an 8B-line cache
// minus the share of its ways its in-array metadata takes.
//
// Caches here are timing/occupancy models: they track presence, dirtiness,
// replacement and traffic, not data (the engine computes values
// functionally, see DESIGN.md §5). Every model counts useful-vs-fetched
// bytes per line so the Fig. 3 breakdown falls out of the stats.
package cache

import "fmt"

// Eviction describes data leaving the cache that must be written back.
type Eviction struct {
	Addr  uint64
	Bytes uint64
	Dirty bool
}

// Fetch describes data that must be brought in from memory to serve a miss.
type Fetch struct {
	Addr  uint64
	Bytes uint64
}

// Result is the outcome of one 8B-word access. Access returns a view of
// storage the cache owns: the Result and its Evictions are valid until the
// next Access or Flush on the same cache, the caller must not modify them,
// and a caller that keeps them longer must copy them.
type Result struct {
	Hit       bool
	Fetch     Fetch // what a miss brings in; every design fetches one piece
	Evictions []Eviction
}

// hitResult is the Result of every hit of every cache: a hit fetches and
// evicts nothing, so one immutable value serves them all.
var hitResult = Result{Hit: true}

// scratch is the storage behind what a cache's Access and Flush return;
// every design embeds one, so a miss allocates and copies nothing.
type scratch struct {
	res   Result
	evict []Eviction
}

// missResult is the Result of a miss that fetches bytes at addr and evicts
// what the caller collected in s.evict (which it must have reset first).
func (s *scratch) missResult(addr, bytes uint64) *Result {
	// Field by field: a composite literal is built on the stack and copied,
	// and the copy's wide loads stall on the narrow stores that built it.
	r := &s.res
	r.Hit, r.Fetch.Addr, r.Fetch.Bytes, r.Evictions = false, addr, bytes, s.evict
	return r
}

// Stats aggregates cache behaviour.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	LineMisses   uint64 // allocations of a whole new line
	SectorMisses uint64 // fine-grained misses within a present line
	Evictions    uint64
	DirtyEvicts  uint64
	BytesFetched uint64
	BytesUseful  uint64 // fetched bytes touched before leaving the cache
	BytesWritten uint64 // writeback traffic
}

// HitRate returns hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// UsefulFraction returns the share of fetched bytes that were actually used
// (Fig. 3's useful/unuseful split).
func (s *Stats) UsefulFraction() float64 {
	if s.BytesFetched == 0 {
		return 0
	}
	return float64(s.BytesUseful) / float64(s.BytesFetched)
}

// Cache is the interface the accelerator engine drives. Access models one
// 8B-word read-modify-write probe (write=true marks the word dirty). On a
// miss the caller is responsible for fetching Result.Fetch through the
// memory system and for writing back Result.Evictions; the cache's
// directory state is updated eagerly (allocate-on-miss), the standard
// trace-driven simplification.
type Cache interface {
	Name() string
	Access(addr uint64, write bool) *Result
	// Flush evicts everything (end of a processing phase), returning the
	// dirty writebacks — like Result's slices, a view valid until the
	// next Access or Flush.
	Flush() []Eviction
	// Partition informs the cache of the upcoming tile's byte range
	// [lo, hi) (§V-B way partitioning; an empty range removes it); a
	// no-op for all designs but Piccolo.
	Partition(lo, hi uint64)
	// FetchBytes is the miss-fill granularity: 64 for the conventional
	// design, 8 for the fine-grained ones.
	FetchBytes() uint64
	Stats() *Stats
}

// Replacement selects Piccolo-cache's LRU or RRIP policy (Fig. 11's
// Piccolo (LRU) vs Piccolo (RRIP) comparison).
type Replacement int

const (
	LRU Replacement = iota
	RRIP
)

func (r Replacement) String() string {
	if r == RRIP {
		return "RRIP"
	}
	return "LRU"
}

// rripInsert is the 2-bit re-reference prediction value [35] for newly
// inserted blocks ("long re-reference interval").
const rripInsert = 2

func pow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

func checkGeometry(name string, capacity uint64, ways int, lineBytes uint64) error {
	if ways <= 0 || capacity == 0 || lineBytes == 0 {
		return fmt.Errorf("cache %s: zero geometry", name)
	}
	lines := capacity / lineBytes
	if lines == 0 || lines%uint64(ways) != 0 {
		return fmt.Errorf("cache %s: capacity %d not divisible into %d-way sets of %dB lines", name, capacity, ways, lineBytes)
	}
	sets := lines / uint64(ways)
	if !pow2(sets) || !pow2(lineBytes) {
		return fmt.Errorf("cache %s: sets (%d) and line size (%d) must be powers of two", name, sets, lineBytes)
	}
	return nil
}
