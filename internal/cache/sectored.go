package cache

import "math/bits"

// sectored is the classic sectored cache [54], [55]: 64B lines whose tag is
// shared by eight 8B sectors with individual valid bits. Fine-grained fills
// (8B) come cheap, but a single sector still occupies an entire line —
// the capacity inefficiency §V-A and Fig. 11 demonstrate.
type sectored struct {
	name      string
	lineBytes uint64
	ways      int
	setMask   uint64
	setBits   int
	setShift  int
	repl      Replacement
	stats     Stats

	sets [][]secLine
	tick uint64
	scratch
}

type secLine struct {
	valid    bool
	tag      uint64
	lastUsed uint64
	rrpv     uint8
	present  uint64 // per-sector valid bits
	dirty    uint64 // per-sector dirty bits
	touched  uint64
}

// NewSectored returns an 8-sector 64B-line sectored cache.
func NewSectored(capacity uint64, ways int, repl Replacement) (Cache, error) {
	const lineBytes = 64
	if err := checkGeometry("sectored", capacity, ways, lineBytes); err != nil {
		return nil, err
	}
	nsets := capacity / lineBytes / uint64(ways)
	c := &sectored{
		name:      "sectored",
		lineBytes: lineBytes,
		ways:      ways,
		setShift:  bits.TrailingZeros64(uint64(lineBytes)),
		setMask:   nsets - 1,
		setBits:   bits.TrailingZeros64(nsets),
		repl:      repl,
		sets:      make([][]secLine, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]secLine, ways)
	}
	return c, nil
}

func (c *sectored) Name() string       { return c.name }
func (c *sectored) Stats() *Stats      { return &c.stats }
func (c *sectored) FetchBytes() uint64 { return 8 }
func (c *sectored) Partition([]uint64) {}

func (c *sectored) index(addr uint64) (set int, tag uint64, sector uint) {
	lineAddr := addr >> c.setShift
	set = int(lineAddr & c.setMask)
	tag = lineAddr >> c.setBits
	sector = uint((addr & (c.lineBytes - 1)) >> 3)
	return
}

func (c *sectored) Access(addr uint64, write bool) *Result {
	c.tick++
	c.stats.Accesses++
	set, tag, sector := c.index(addr)
	lines := c.sets[set]
	bit := uint64(1) << sector
	for i := range lines {
		ln := &lines[i]
		if !ln.valid || ln.tag != tag {
			continue
		}
		ln.lastUsed = c.tick
		ln.rrpv = 0
		if ln.present&bit != 0 {
			c.stats.Hits++
			ln.touched |= bit
			if write {
				ln.dirty |= bit
			}
			return &hitResult
		}
		// Sector miss within a present line: fetch just the sector.
		c.stats.Misses++
		c.stats.SectorMisses++
		ln.present |= bit
		ln.touched |= bit
		if write {
			ln.dirty |= bit
		}
		c.stats.BytesFetched += 8
		c.evict = c.evict[:0]
		return c.missResult(addr&^7, 8)
	}
	// Line miss: allocate an entire line for this one sector.
	c.stats.Misses++
	c.stats.LineMisses++
	victim := c.pickVictim(lines)
	c.evict = c.evict[:0]
	if victim.valid {
		c.evict = c.evictLine(c.evict, set, victim, false)
	}
	*victim = secLine{
		valid:    true,
		tag:      tag,
		lastUsed: c.tick,
		rrpv:     rripInsert,
		present:  bit,
		touched:  bit,
	}
	if write {
		victim.dirty = bit
	}
	c.stats.BytesFetched += 8
	return c.missResult(addr&^7, 8)
}

func (c *sectored) pickVictim(lines []secLine) *secLine {
	for i := range lines {
		if !lines[i].valid {
			return &lines[i]
		}
	}
	if c.repl == RRIP {
		for {
			for i := range lines {
				if lines[i].rrpv >= rripMax {
					return &lines[i]
				}
			}
			for i := range lines {
				lines[i].rrpv++
			}
		}
	}
	victim := &lines[0]
	for i := 1; i < len(lines); i++ {
		if lines[i].lastUsed < victim.lastUsed {
			victim = &lines[i]
		}
	}
	return victim
}

// evictLine accounts for ln leaving the cache and appends its present
// sectors' evictions (only the dirty ones if dirtyOnly) to dst.
func (c *sectored) evictLine(dst []Eviction, set int, ln *secLine, dirtyOnly bool) []Eviction {
	c.stats.Evictions++
	c.stats.BytesUseful += uint64(bits.OnesCount64(ln.touched)) * 8
	base := (ln.tag<<c.setBits | uint64(set)) << c.setShift
	for s := uint(0); s < 8; s++ {
		bit := uint64(1) << s
		if ln.present&bit == 0 {
			continue
		}
		dirty := ln.dirty&bit != 0
		if dirty {
			c.stats.DirtyEvicts++
			c.stats.BytesWritten += 8
		}
		if dirty || !dirtyOnly {
			dst = append(dst, Eviction{Addr: base + uint64(s)*8, Bytes: 8, Dirty: dirty})
		}
	}
	return dst
}

func (c *sectored) Flush() []Eviction {
	c.evict = c.evict[:0]
	for set := range c.sets {
		for i := range c.sets[set] {
			if ln := &c.sets[set][i]; ln.valid {
				c.evict = c.evictLine(c.evict, set, ln, true)
				ln.valid = false
			}
		}
	}
	return c.evict
}
