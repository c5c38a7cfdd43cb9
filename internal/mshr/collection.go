package mshr

// Flush describes a collection entry ready to be dispatched to memory as a
// FIM gather/scatter (or an NMP rank operation): the grouped item addresses
// and, for gathers, the number of merged accesses waiting on each item.
type Flush struct {
	Key     uint64 // DRAM row key (or rank key for NMP grouping)
	Addrs   []uint64
	Subs    []int
	Scatter bool
}

// Items returns the number of grouped 8B words.
func (f *Flush) Items() int { return len(f.Addrs) }

// TotalSubs returns the total merged accesses across all items.
func (f *Flush) TotalSubs() int {
	n := 0
	for _, s := range f.Subs {
		n += s
	}
	return n
}

type centry struct {
	valid bool
	key   uint64
	addrs []uint64
	subs  []int
}

func (e *centry) find(addr uint64) int {
	for i, a := range e.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// Collection is the collection-extended MSHR of §V-C: two direct-mapped
// buffers (GA for gathers, SC for scatters) indexed by DRAM row key, each
// entry accumulating up to ItemsPerOp column offsets. A full entry is
// dispatched as one in-memory operation; a conflicting allocation evicts
// the resident entry as a partial operation ("a buffer is newly allocated,
// possibly evicting another that invokes a partially filled gather or
// scatter").
//
// Entries are retired at dispatch; the engine completes their merged
// accesses when the memory operation finishes.
//
// The flushes ReadMiss, Writeback and Drain return are views of scratch
// storage the collection owns: they (and their Addrs/Subs) are valid until
// the next call of one of those three methods on this collection, and the
// caller must copy whatever it keeps longer.
type Collection struct {
	itemsPerOp int
	ga, sc     []centry
	pow2       bool    // the entry count is a power of two
	out        []Flush // scratch behind the returned flushes
	Stats      Stats
}

// NewCollection builds a collection MSHR with the given number of
// direct-mapped entries per side and items per operation.
func NewCollection(entries, itemsPerOp int) *Collection {
	if entries < 1 {
		entries = 1
	}
	if itemsPerOp < 1 {
		itemsPerOp = 1
	}
	return &Collection{
		itemsPerOp: itemsPerOp,
		ga:         make([]centry, entries),
		sc:         make([]centry, entries),
		pow2:       entries&(entries-1) == 0,
	}
}

// ItemsPerOp returns the gather/scatter width.
func (c *Collection) ItemsPerOp() int { return c.itemsPerOp }

// slot selects the direct-mapped entry for a row key. Row keys pack
// (row, bank, rank, channel) as mixed radix, so key%entries is collision
// free for a contiguous tile as long as entries covers the full
// bank-fanout radix (the constructor enforces a sensible minimum). Every
// entry count core.Run derives is a power of two, where the remainder is a
// mask; other counts pay the 64-bit divide.
func (c *Collection) slot(side []centry, key uint64) *centry {
	if c.pow2 {
		return &side[key&uint64(len(side)-1)]
	}
	return &side[key%uint64(len(side))]
}

// take retires e into the next scratch flush. The entry and the flush swap
// item buffers, so neither side allocates once both have grown to
// itemsPerOp.
func (c *Collection) take(e *centry, scatter bool) {
	n := len(c.out)
	if n < cap(c.out) {
		c.out = c.out[:n+1]
	} else {
		c.out = append(c.out, Flush{})
	}
	f := &c.out[n]
	spareAddrs, spareSubs := f.Addrs[:0], f.Subs[:0]
	*f = Flush{Key: e.key, Addrs: e.addrs, Subs: e.subs, Scatter: scatter}
	if len(e.addrs) < c.itemsPerOp {
		c.Stats.Partial++
	}
	c.Stats.Flushes++
	*e = centry{addrs: spareAddrs, subs: spareSubs}
}

// ReadMiss registers a fine-grained read miss (8B word at addr, grouped by
// key). The controller flow of Fig. 7:
//
//  1. if the word sits in the SC buffer (a pending write-back), the request
//     is served from the write-back data: served=true, nothing else happens;
//  2. if the word is already collected in the GA buffer, the miss merges:
//     pending=true (it completes when that gather's flush completes);
//  3. otherwise the offset is added, evicting a conflicting row's partial
//     gather if necessary; a full entry is dispatched.
//
// The returned flushes (0–2) must be submitted to memory by the caller.
func (c *Collection) ReadMiss(addr, key uint64) (served bool, flushes []Flush) {
	c.out = c.out[:0]
	if e := c.slot(c.sc, key); e.valid && e.key == key && e.find(addr) >= 0 {
		c.Stats.Served++
		return true, nil
	}
	e := c.slot(c.ga, key)
	if e.valid && e.key == key {
		if i := e.find(addr); i >= 0 {
			e.subs[i]++
			c.Stats.Merges++
			return false, nil
		}
	} else if e.valid {
		// Direct-mapped conflict: evict the resident partial gather.
		c.take(e, false)
	}
	if !e.valid {
		e.valid = true
		e.key = key
		e.addrs = e.addrs[:0]
		e.subs = e.subs[:0]
	}
	e.addrs = append(e.addrs, addr)
	e.subs = append(e.subs, 1)
	c.Stats.Allocs++
	if len(e.addrs) >= c.itemsPerOp {
		c.take(e, false)
	}
	return false, c.out
}

// Writeback registers a dirty 8B eviction destined for (addr, key). A
// repeated write-back to the same word coalesces. Returned flushes must be
// submitted to memory.
func (c *Collection) Writeback(addr, key uint64) (flushes []Flush) {
	c.out = c.out[:0]
	e := c.slot(c.sc, key)
	if e.valid && e.key == key {
		if e.find(addr) >= 0 {
			c.Stats.Merges++
			return nil // newer data coalesces into the pending slot
		}
	} else if e.valid {
		c.take(e, true)
	}
	if !e.valid {
		e.valid = true
		e.key = key
		e.addrs = e.addrs[:0]
		e.subs = e.subs[:0]
	}
	e.addrs = append(e.addrs, addr)
	e.subs = append(e.subs, 0)
	c.Stats.Allocs++
	if len(e.addrs) >= c.itemsPerOp {
		c.take(e, true)
	}
	return c.out
}

// Drain dispatches every resident entry (end of a tile or iteration).
func (c *Collection) Drain() []Flush {
	c.out = c.out[:0]
	for i := range c.ga {
		if c.ga[i].valid {
			c.take(&c.ga[i], false)
		}
	}
	for i := range c.sc {
		if c.sc[i].valid {
			c.take(&c.sc[i], true)
		}
	}
	return c.out
}

// Pending returns the number of resident (not yet dispatched) entries.
func (c *Collection) Pending() int {
	n := 0
	for i := range c.ga {
		if c.ga[i].valid {
			n++
		}
	}
	for i := range c.sc {
		if c.sc[i].valid {
			n++
		}
	}
	return n
}
