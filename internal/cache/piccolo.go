package cache

import "math/bits"

// Piccolo-cache's geometry (§V-A): 128B lines of sixteen 8B sectors, each
// sector with its own 8-bit fine-grained tag, in 8 ways.
const (
	piccoloSectors   = 16
	piccoloLineBytes = piccoloSectors * 8
	piccoloWays      = 8
	fgOffBits        = 4 // log2(piccoloSectors)
	fgTagBits        = 8
)

// piccolo implements Piccolo-cache: the address is split as
// [tag | fg-tag | set | fg-offset | byte], so {set, fg-offset} occupies
// exactly the bit positions an 8B-line cache would use as its set index —
// "unless the tag changes, Piccolo-cache can operate as if 8B line cache"
// (§V-A). Each sector carries its own fg-tag; the same line tag may appear
// in several ways of one set, governed by per-tile way partitioning (§V-B).
type piccolo struct {
	repl    Replacement
	ways    int
	setMask uint64
	setBits int
	stats   Stats

	// Way partitioning (§V-B): a tag in [partLo, partHi], the current
	// tile's, may hold quota ways of a set, any other tag one. Without a
	// tile every tag is in range and may hold every way.
	partLo, partHi uint64
	quota          int

	lines []pLine // set s is lines[s*ways : (s+1)*ways]
	tick  uint64
	scratch
}

// sectorMask has one bit per sector of a line.
type sectorMask uint16

type pLine struct {
	tag      uint64
	lastUsed uint64
	rrpv     uint8
	valid    sectorMask // zero when the line is invalid
	dirty    sectorMask // a subset of valid
	fgTag    [piccoloSectors]uint8
}

// NewPiccolo returns a Piccolo-cache with the paper's geometry scaled to
// the given capacity.
func NewPiccolo(capacity uint64, repl Replacement) (Cache, error) {
	return newPiccolo(capacity, piccoloWays, repl)
}

func newPiccolo(capacity uint64, ways int, repl Replacement) (*piccolo, error) {
	if err := checkGeometry("piccolo", capacity, ways, piccoloLineBytes); err != nil {
		return nil, err
	}
	nsets := capacity / piccoloLineBytes / uint64(ways)
	c := &piccolo{
		repl:    repl,
		ways:    ways,
		setMask: nsets - 1,
		setBits: bits.TrailingZeros64(nsets),
		lines:   make([]pLine, nsets*uint64(ways)),
	}
	c.Partition(0, 0)
	return c, nil
}

func (c *piccolo) Name() string       { return "piccolo-" + c.repl.String() }
func (c *piccolo) Stats() *Stats      { return &c.stats }
func (c *piccolo) FetchBytes() uint64 { return 8 }

// split decomposes an address per Fig. 5b.
func (c *piccolo) split(addr uint64) (tag uint64, fgTag uint8, set int, fgOff uint) {
	x := addr >> 3 // byte offset
	fgOff = uint(x & (piccoloSectors - 1))
	x >>= fgOffBits
	set = int(x & c.setMask)
	x >>= c.setBits
	return x >> fgTagBits, uint8(x), set, fgOff
}

// join reconstructs a sector's address.
func (c *piccolo) join(tag uint64, fgTag uint8, set int, fgOff uint) uint64 {
	x := tag<<fgTagBits | uint64(fgTag)
	x = x<<c.setBits | uint64(set)
	x = x<<fgOffBits | uint64(fgOff)
	return x << 3
}

// Partition applies equal way partitioning over the tags of the tile's byte
// range [lo, hi) (§V-B: "we can pre-identify the list of tags that
// correspond to each tile range"). An empty range removes the partition.
func (c *piccolo) Partition(lo, hi uint64) {
	if lo >= hi {
		c.partLo, c.partHi, c.quota = 0, ^uint64(0), c.ways
		return
	}
	c.partLo, _, _, _ = c.split(lo)
	c.partHi, _, _, _ = c.split(hi - 1)
	c.quota = 1
	if n := c.partHi - c.partLo + 1; n < uint64(c.ways) {
		c.quota = c.ways / int(n)
	}
}

func (c *piccolo) quotaOf(tag uint64) int {
	if c.partLo <= tag && tag <= c.partHi {
		return c.quota
	}
	return 1 // tags outside the tile still get one way of flexibility
}

func (c *piccolo) Access(addr uint64, write bool) *Result {
	c.tick++
	c.stats.Accesses++
	tag, fgTag, set, fgOff := c.split(addr)
	sector := sectorMask(1) << fgOff
	lines := c.lines[set*c.ways : (set+1)*c.ways]

	// Sequential way search among matching tags (§V-A).
	matching := 0
	var lruMatch *pLine
	for i := range lines {
		ln := &lines[i]
		if ln.valid == 0 || ln.tag != tag {
			continue
		}
		matching++
		if ln.valid&sector != 0 && ln.fgTag[fgOff] == fgTag {
			c.stats.Hits++
			ln.lastUsed = c.tick
			ln.rrpv = 0
			if write {
				ln.dirty |= sector
			}
			return &hitResult
		}
		if lruMatch == nil || c.older(ln, lruMatch) {
			lruMatch = ln
		}
	}

	c.stats.Misses++
	c.stats.BytesFetched += 8
	c.evict = c.evict[:0]
	ln := lruMatch
	// Every quota is at least one way, so a tag with no line always gets
	// one.
	if matching < c.quotaOf(tag) {
		// The tag has unused way budget: install a fresh line, evicting a
		// whole line of another tag (§V-B) — unless every way already
		// holds this tag.
		if victim := c.lineVictim(lines, tag); victim != nil {
			c.stats.LineMisses++
			if victim.valid != 0 {
				c.evict = c.evictLine(c.evict, set, victim, false)
			}
			*victim = pLine{tag: tag, rrpv: rripInsert}
			ln = victim
		}
	}
	if ln == lruMatch {
		// Sector replacement inside the LRU matching line (Fig. 6): only
		// a small single sector is evicted.
		c.stats.SectorMisses++
		if ln.valid&sector != 0 {
			c.evict = append(c.evict, c.evictSector(set, ln, fgOff))
		}
		ln.rrpv = 0
	}
	ln.lastUsed = c.tick
	ln.valid |= sector
	ln.dirty &^= sector
	if write {
		ln.dirty |= sector
	}
	ln.fgTag[fgOff] = fgTag
	return c.missResult(addr&^7, 8)
}

// older reports whether a should be replaced before b under the configured
// policy.
func (c *piccolo) older(a, b *pLine) bool {
	if c.repl == RRIP && a.rrpv != b.rrpv {
		return a.rrpv > b.rrpv
	}
	return a.lastUsed < b.lastUsed
}

// lineVictim chooses an invalid way or the LRU/RRIP way among lines NOT
// holding the given tag; nil when every way holds the tag.
func (c *piccolo) lineVictim(lines []pLine, tag uint64) *pLine {
	var victim *pLine
	for i := range lines {
		ln := &lines[i]
		if ln.valid == 0 {
			return ln
		}
		if ln.tag == tag {
			continue
		}
		if victim == nil || c.older(ln, victim) {
			victim = ln
		}
	}
	return victim
}

// evictSector accounts for sector fgOff of ln leaving the cache and returns
// its eviction.
func (c *piccolo) evictSector(set int, ln *pLine, fgOff uint) Eviction {
	c.stats.BytesUseful += 8 // fetched at 8B and touched by definition
	dirty := ln.dirty>>fgOff&1 != 0
	if dirty {
		c.stats.DirtyEvicts++
		c.stats.BytesWritten += 8
	}
	return Eviction{Addr: c.join(ln.tag, ln.fgTag[fgOff], set, fgOff), Bytes: 8, Dirty: dirty}
}

// evictLine evicts every valid sector of ln, appending the evictions (only
// the dirty ones if dirtyOnly) to dst.
func (c *piccolo) evictLine(dst []Eviction, set int, ln *pLine, dirtyOnly bool) []Eviction {
	c.stats.Evictions++
	for m := ln.valid; m != 0; m &= m - 1 {
		if ev := c.evictSector(set, ln, uint(bits.TrailingZeros16(uint16(m)))); ev.Dirty || !dirtyOnly {
			dst = append(dst, ev)
		}
	}
	ln.valid, ln.dirty = 0, 0
	return dst
}

func (c *piccolo) Flush() []Eviction {
	c.evict = c.evict[:0]
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid != 0 {
			c.evict = c.evictLine(c.evict, i/c.ways, ln, true)
		}
	}
	return c.evict
}
