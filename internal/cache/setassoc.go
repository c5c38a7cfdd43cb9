package cache

import "math/bits"

// setAssoc is a set-associative LRU cache of lineBytes lines, filled fill
// bytes (one sector) per miss. With fill == lineBytes it is a classic cache
// (conventional 64B, or the 8B-line ideal of Fig. 5a); with fill < lineBytes
// it is the sectored cache [54], [55]: the sectors share the line's tag and
// have their own valid bits, so one sector still occupies a whole line —
// the capacity inefficiency §V-A and Fig. 11 demonstrate.
type setAssoc struct {
	name      string
	lineBytes uint64
	fill      uint64
	fillWords wordMask // the words of the line's first sector
	ways      int
	setShift  int
	setMask   uint64
	setBits   int
	stats     Stats

	lines []saLine // set s is lines[s*ways : (s+1)*ways]
	tick  uint64
	scratch
}

// wordMask has one bit per 8B word of a line; lines are at most 64B.
type wordMask uint8

type saLine struct {
	tag      uint64
	lastUsed uint64
	present  wordMask // words of the filled sectors; zero when invalid
	dirty    wordMask
	touched  wordMask // words accessed since the line was allocated
}

func newSetAssoc(name string, capacity uint64, ways int, lineBytes, fill uint64) (*setAssoc, error) {
	if err := checkGeometry(name, capacity, ways, lineBytes); err != nil {
		return nil, err
	}
	nsets := capacity / lineBytes / uint64(ways)
	return &setAssoc{
		name:      name,
		lineBytes: lineBytes,
		fill:      fill,
		fillWords: ^wordMask(0) >> (8 - fill/8),
		ways:      ways,
		setShift:  bits.TrailingZeros64(lineBytes),
		setMask:   nsets - 1,
		setBits:   bits.TrailingZeros64(nsets),
		lines:     make([]saLine, nsets*uint64(ways)),
	}, nil
}

func (c *setAssoc) Name() string       { return c.name }
func (c *setAssoc) Stats() *Stats      { return &c.stats }
func (c *setAssoc) FetchBytes() uint64 { return c.fill }
func (c *setAssoc) Partition([]uint64) {}

func (c *setAssoc) Access(addr uint64, write bool) *Result {
	c.tick++
	c.stats.Accesses++
	lineAddr := addr >> c.setShift
	set := int(lineAddr & c.setMask)
	tag := lineAddr >> c.setBits
	offset := addr & (c.lineBytes - 1)
	word := wordMask(1) << (offset >> 3)
	lines := c.lines[set*c.ways : (set+1)*c.ways]
	var ln *saLine
	for i := range lines {
		if lines[i].tag == tag && lines[i].present != 0 {
			ln = &lines[i]
			break
		}
	}
	if ln != nil && ln.present&word != 0 {
		c.stats.Hits++
		ln.lastUsed = c.tick
		ln.touched |= word
		if write {
			ln.dirty |= word
		}
		return &hitResult
	}
	c.stats.Misses++
	c.stats.BytesFetched += c.fill
	c.evict = c.evict[:0]
	if ln == nil {
		// Line miss: allocate a line for the sector, evicting the LRU way.
		c.stats.LineMisses++
		ln = c.victim(lines)
		if ln.present != 0 {
			c.evict = c.evictLine(c.evict, set, ln, false)
		}
		*ln = saLine{tag: tag}
	} else {
		// Sector miss within a present line: fetch just the sector.
		c.stats.SectorMisses++
	}
	ln.lastUsed = c.tick
	ln.present |= c.fillWords << ((offset &^ (c.fill - 1)) >> 3)
	ln.touched |= word
	if write {
		ln.dirty |= word
	}
	return c.missResult(addr&^(c.fill-1), c.fill)
}

// victim returns the first invalid way, else the least recently used one.
func (c *setAssoc) victim(lines []saLine) *saLine {
	victim := &lines[0]
	for i := range lines {
		if lines[i].present == 0 {
			return &lines[i]
		}
		if lines[i].lastUsed < victim.lastUsed {
			victim = &lines[i]
		}
	}
	return victim
}

// evictLine accounts for ln leaving the cache and appends its present
// sectors' evictions (only the dirty ones if dirtyOnly) to dst.
func (c *setAssoc) evictLine(dst []Eviction, set int, ln *saLine, dirtyOnly bool) []Eviction {
	c.stats.Evictions++
	c.stats.BytesUseful += uint64(bits.OnesCount8(uint8(ln.touched))) * 8
	base := (ln.tag<<c.setBits | uint64(set)) << c.setShift
	for s := uint64(0); s < c.lineBytes; s += c.fill {
		sector := c.fillWords << (s >> 3)
		if ln.present&sector == 0 {
			continue
		}
		dirty := ln.dirty&sector != 0
		if dirty {
			c.stats.DirtyEvicts++
			c.stats.BytesWritten += c.fill
		}
		if dirty || !dirtyOnly {
			dst = append(dst, Eviction{Addr: base + s, Bytes: c.fill, Dirty: dirty})
		}
	}
	return dst
}

func (c *setAssoc) Flush() []Eviction {
	c.evict = c.evict[:0]
	for i := range c.lines {
		if ln := &c.lines[i]; ln.present != 0 {
			c.evict = c.evictLine(c.evict, i/c.ways, ln, true)
			ln.present = 0
		}
	}
	return c.evict
}
