package cache

import (
	"fmt"
	"math/bits"
)

// PiccoloConfig parameterizes the §V-A design. Defaults (via
// NewPiccolo) follow the paper: 128B lines holding 16 8B sectors, 8-bit
// fine-grained tags, 8 ways, equal way partitioning from the tile's tags.
type PiccoloConfig struct {
	Capacity  uint64
	Ways      int
	Sectors   int // 8B sectors per line
	FgTagBits int
	Repl      Replacement
}

// piccolo implements Piccolo-cache: the address is split as
// [tag | fg-tag | set | fg-offset | byte], so {set, fg-offset} occupies
// exactly the bit positions an 8B-line cache would use as its set index —
// "unless the tag changes, Piccolo-cache can operate as if 8B line cache"
// (§V-A). Each sector carries its own fg-tag; the same line tag may appear
// in several ways of one set, governed by per-tile way partitioning (§V-B).
type piccolo struct {
	cfg      PiccoloConfig
	stats    Stats
	setMask  uint64
	setBits  int
	fgoffBit int // = 3 (byte offset width)
	fgMask   uint64

	quota map[uint64]int // way quota per line tag (empty: unrestricted)
	sets  [][]pLine
	tick  uint64
	scratch
}

type pLine struct {
	valid    bool
	tag      uint64
	lastUsed uint64
	rrpv     uint8
	sectors  []pSector
}

type pSector struct {
	valid bool
	dirty bool
	fgTag uint64
}

// NewPiccolo returns a Piccolo-cache with the paper's geometry scaled to
// the given capacity.
func NewPiccolo(capacity uint64, repl Replacement) (Cache, error) {
	return NewPiccoloWithConfig(PiccoloConfig{
		Capacity:  capacity,
		Ways:      8,
		Sectors:   16,
		FgTagBits: 8,
		Repl:      repl,
	})
}

// NewPiccoloWithConfig returns a Piccolo-cache with explicit geometry.
func NewPiccoloWithConfig(cfg PiccoloConfig) (Cache, error) {
	if cfg.Sectors <= 0 || !pow2(uint64(cfg.Sectors)) {
		return nil, fmt.Errorf("cache piccolo: sectors must be a power of two, got %d", cfg.Sectors)
	}
	if cfg.FgTagBits <= 0 || cfg.FgTagBits > 32 {
		return nil, fmt.Errorf("cache piccolo: fg-tag bits %d out of range", cfg.FgTagBits)
	}
	lineBytes := uint64(cfg.Sectors) * 8
	if err := checkGeometry("piccolo", cfg.Capacity, cfg.Ways, lineBytes); err != nil {
		return nil, err
	}
	nsets := cfg.Capacity / lineBytes / uint64(cfg.Ways)
	c := &piccolo{
		cfg:      cfg,
		setMask:  nsets - 1,
		setBits:  bits.TrailingZeros64(nsets),
		fgoffBit: bits.TrailingZeros64(uint64(cfg.Sectors)),
		fgMask:   1<<cfg.FgTagBits - 1,
		quota:    make(map[uint64]int),
		sets:     make([][]pLine, nsets),
	}
	for i := range c.sets {
		lines := make([]pLine, cfg.Ways)
		for w := range lines {
			lines[w].sectors = make([]pSector, cfg.Sectors)
		}
		c.sets[i] = lines
	}
	return c, nil
}

func (c *piccolo) Name() string       { return "piccolo-" + c.cfg.Repl.String() }
func (c *piccolo) Stats() *Stats      { return &c.stats }
func (c *piccolo) FetchBytes() uint64 { return 8 }

// split decomposes an address per Fig. 5b.
func (c *piccolo) split(addr uint64) (tag, fgTag uint64, set int, fgOff uint) {
	x := addr >> 3 // byte offset
	fgOff = uint(x & uint64(c.cfg.Sectors-1))
	x >>= c.fgoffBit
	set = int(x & c.setMask)
	x >>= c.setBits
	fgTag = x & c.fgMask
	tag = x >> c.cfg.FgTagBits
	return
}

// join reconstructs a sector's address.
func (c *piccolo) join(tag, fgTag uint64, set int, fgOff uint) uint64 {
	x := tag<<c.cfg.FgTagBits | fgTag
	x = x<<c.setBits | uint64(set)
	x = x<<c.fgoffBit | uint64(fgOff)
	return x << 3
}

// TagOf returns the line tag of an address — used by the engine to build
// the per-tile tag list for Partition.
func (c *piccolo) TagOf(addr uint64) uint64 {
	tag, _, _, _ := c.split(addr)
	return tag
}

// TagSpanBytes returns the contiguous address span covered by one line
// tag; tile tag lists are enumerated at this granularity.
func (c *piccolo) TagSpanBytes() uint64 {
	return 1 << (3 + c.fgoffBit + c.setBits + c.cfg.FgTagBits)
}

// Partition applies equal way partitioning over the tile's tags (§V-B).
// Passing an empty list removes all quotas.
func (c *piccolo) Partition(tags []uint64) {
	clear(c.quota)
	if len(tags) == 0 {
		return
	}
	per := c.cfg.Ways / len(tags)
	if per < 1 {
		per = 1
	}
	for _, t := range tags {
		c.quota[t] = per
	}
}

func (c *piccolo) quotaOf(tag uint64) int {
	if len(c.quota) == 0 {
		return c.cfg.Ways
	}
	if q, ok := c.quota[tag]; ok {
		return q
	}
	// Tags outside the declared tile set still get one way of flexibility.
	return 1
}

func (c *piccolo) Access(addr uint64, write bool) *Result {
	c.tick++
	c.stats.Accesses++
	tag, fgTag, set, fgOff := c.split(addr)
	lines := c.sets[set]

	// Sequential way search among matching tags (§V-A).
	matching := 0
	var lruMatch *pLine
	for i := range lines {
		ln := &lines[i]
		if !ln.valid || ln.tag != tag {
			continue
		}
		matching++
		sec := &ln.sectors[fgOff]
		if sec.valid && sec.fgTag == fgTag {
			c.stats.Hits++
			ln.lastUsed = c.tick
			ln.rrpv = 0
			if write {
				sec.dirty = true
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
	if matching < c.quotaOf(tag) {
		// The tag has unused way budget: install a fresh line, evicting a
		// whole line of another tag in LRU order (§V-B).
		if victim := c.pickLineVictim(lines, tag); victim != nil {
			c.stats.LineMisses++
			if victim.valid {
				c.evict = c.evictLine(c.evict, set, victim, false)
			}
			c.resetLine(victim, tag)
			c.installSector(victim, fgTag, fgOff, write)
			return c.missResult(addr&^7, 8)
		}
		// Every way already holds this tag: fall through to sector
		// replacement.
	}
	// Sector replacement inside the LRU matching line (Fig. 6): only a
	// small single sector is evicted.
	if lruMatch == nil {
		// No matching line and no allocatable way (quota exhausted by
		// in-set pressure): steal the set-wide LRU line.
		victim := c.pickLineVictim(lines, tag)
		c.stats.LineMisses++
		if victim.valid {
			c.evict = c.evictLine(c.evict, set, victim, false)
		}
		c.resetLine(victim, tag)
		c.installSector(victim, fgTag, fgOff, write)
		return c.missResult(addr&^7, 8)
	}
	c.stats.SectorMisses++
	sec := &lruMatch.sectors[fgOff]
	if sec.valid {
		c.evict = append(c.evict, c.evictSector(set, lruMatch, fgOff))
	}
	lruMatch.lastUsed = c.tick
	lruMatch.rrpv = 0
	c.installSectorAt(sec, fgTag, write)
	return c.missResult(addr&^7, 8)
}

// older reports whether a should be replaced before b under the configured
// policy.
func (c *piccolo) older(a, b *pLine) bool {
	if c.cfg.Repl == RRIP {
		if a.rrpv != b.rrpv {
			return a.rrpv > b.rrpv
		}
	}
	return a.lastUsed < b.lastUsed
}

// pickLineVictim chooses an invalid way or the LRU/RRIP way among lines NOT
// holding the given tag; nil when every way holds the tag.
func (c *piccolo) pickLineVictim(lines []pLine, tag uint64) *pLine {
	var victim *pLine
	for i := range lines {
		ln := &lines[i]
		if !ln.valid {
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

func (c *piccolo) resetLine(ln *pLine, tag uint64) {
	ln.valid = true
	ln.tag = tag
	ln.lastUsed = c.tick
	ln.rrpv = rripInsert
	for i := range ln.sectors {
		ln.sectors[i] = pSector{}
	}
}

func (c *piccolo) installSector(ln *pLine, fgTag uint64, fgOff uint, write bool) {
	c.installSectorAt(&ln.sectors[fgOff], fgTag, write)
}

func (c *piccolo) installSectorAt(sec *pSector, fgTag uint64, write bool) {
	*sec = pSector{valid: true, fgTag: fgTag, dirty: write}
}

func (c *piccolo) evictSector(set int, ln *pLine, fgOff uint) Eviction {
	sec := &ln.sectors[fgOff]
	c.stats.BytesUseful += 8 // fetched at 8B and touched by definition
	addr := c.join(ln.tag, sec.fgTag, set, fgOff)
	ev := Eviction{Addr: addr, Bytes: 8, Dirty: sec.dirty}
	if sec.dirty {
		c.stats.DirtyEvicts++
		c.stats.BytesWritten += 8
	}
	sec.valid = false
	return ev
}

// evictLine evicts every valid sector of ln, appending the evictions (only
// the dirty ones if dirtyOnly) to dst.
func (c *piccolo) evictLine(dst []Eviction, set int, ln *pLine, dirtyOnly bool) []Eviction {
	c.stats.Evictions++
	for fgOff := range ln.sectors {
		if ln.sectors[fgOff].valid {
			if ev := c.evictSector(set, ln, uint(fgOff)); ev.Dirty || !dirtyOnly {
				dst = append(dst, ev)
			}
		}
	}
	ln.valid = false
	return dst
}

func (c *piccolo) Flush() []Eviction {
	c.evict = c.evict[:0]
	for set := range c.sets {
		for w := range c.sets[set] {
			if ln := &c.sets[set][w]; ln.valid {
				c.evict = c.evictLine(c.evict, set, ln, true)
			}
		}
	}
	return c.evict
}

// TagOverheadFraction returns tag-storage bits as a fraction of data bits
// for the configured geometry — the §V-A cost comparison (≈14.6% for
// Piccolo vs ≈45% for the 8B-line cache at the paper's 48-bit addressing).
func (c *piccolo) TagOverheadFraction(addrBits int) float64 {
	lineBytes := uint64(c.cfg.Sectors) * 8
	tagBits := addrBits - c.cfg.FgTagBits - c.setBits - c.fgoffBit - 3
	if tagBits < 0 {
		tagBits = 0
	}
	perLine := tagBits + c.cfg.Sectors*c.cfg.FgTagBits
	return float64(perLine) / float64(lineBytes*8)
}
