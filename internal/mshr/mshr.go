// Package mshr implements miss handling: a conventional MSHR (merge misses
// to the same fill block) and the collection-extended MSHR of §V-C, which
// groups fine-grained misses and writebacks by DRAM row so they can be
// served by Piccolo-FIM gathers and scatters (or, keyed by rank, by the NMP
// baseline's buffer chip).
package mshr

import "math/bits"

// Stats counts MSHR behaviour.
type Stats struct {
	Allocs     uint64 // new block/offset registrations
	Merges     uint64 // secondary misses merged into an existing entry
	FullStalls uint64 // allocation attempts rejected for capacity
	Flushes    uint64 // collection entries dispatched
	Partial    uint64 // dispatched with fewer than ItemsPerOp offsets
	Served     uint64 // read misses served from pending write-back data
}

// Conventional is a fully-associative MSHR keyed by fill-block address.
// Subentries are counted, not stored: the engine only needs to know how
// many stalled accesses resume when a fill returns.
//
// The entries live in an open-addressed table probed linearly from a
// multiplicative hash. It has a power-of-two number of slots, at least
// twice the capacity, so a probe always ends at an empty slot and clusters
// stay a few slots long; deletion shifts the rest of the cluster back, so
// there are no tombstones and the table never needs rebuilding.
type Conventional struct {
	capacity int
	n        int // in-flight blocks
	shift    uint
	slots    []convSlot
	Stats    Stats
}

// convSlot is one table slot; subs == 0 marks it empty (an in-flight block
// carries at least the access that allocated it).
type convSlot struct {
	block uint64
	subs  int
}

// NewConventional returns an MSHR with the given entry capacity.
func NewConventional(capacity int) *Conventional {
	capacity = max(capacity, 0)
	logSlots := bits.Len(uint(max(2*capacity, 2) - 1))
	return &Conventional{
		capacity: capacity,
		shift:    uint(64 - logSlots),
		slots:    make([]convSlot, 1<<logSlots),
	}
}

// home is the slot a block's probe starts at. Block addresses are multiples
// of the fill size, so the hash takes its bits from the top of a Fibonacci
// multiply rather than the bottom of the address.
func (m *Conventional) home(block uint64) int {
	return int(block * 0x9E3779B97F4A7C15 >> m.shift)
}

// find returns the index of the slot holding block, or of the empty slot
// that ends its probe sequence.
func (m *Conventional) find(block uint64) int {
	mask := len(m.slots) - 1
	i := m.home(block)
	for m.slots[i].subs != 0 && m.slots[i].block != block {
		i = (i + 1) & mask
	}
	return i
}

// Register records a miss on block. It returns (allocated=false,
// merged=true) for secondary misses, (true, false) for a fresh allocation,
// and (false, false) when the MSHR is full (the requester must stall).
func (m *Conventional) Register(block uint64) (allocated, merged bool) {
	s := &m.slots[m.find(block)]
	if s.subs != 0 {
		s.subs++
		m.Stats.Merges++
		return false, true
	}
	if m.n >= m.capacity {
		m.Stats.FullStalls++
		return false, false
	}
	*s = convSlot{block: block, subs: 1}
	m.n++
	m.Stats.Allocs++
	return true, false
}

// Complete removes the block entry, returning how many merged accesses it
// carried (0 when the block was not registered).
func (m *Conventional) Complete(block uint64) int {
	i := m.find(block)
	subs := m.slots[i].subs
	if subs == 0 {
		return 0
	}
	m.n--
	// Backward-shift deletion: walk the rest of the cluster and move back
	// into the hole every entry whose home is not cyclically inside
	// (hole, entry] — one that is must stay reachable from its home.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].subs != 0; j = (j + 1) & mask {
		if h := m.home(m.slots[j].block); (j-h)&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = convSlot{}
	return subs
}
