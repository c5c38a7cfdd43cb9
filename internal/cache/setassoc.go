package cache

import "math/bits"

// setAssoc is a classic set-associative cache with a configurable line
// size. With 64B lines it is the conventional baseline; with 8B lines it is
// the tag-heavy ideal fine-grained design of Fig. 5a / Fig. 11 ("8B-Line").
type setAssoc struct {
	name      string
	lineBytes uint64
	ways      int
	setShift  int
	setMask   uint64
	setBits   int
	repl      Replacement
	stats     Stats

	sets [][]saLine
	tick uint64
	scratch
}

type saLine struct {
	valid    bool
	dirty    bool
	tag      uint64
	lastUsed uint64
	rrpv     uint8
	touched  uint64 // bitmask of accessed 8B words within the line
	dirtyW   uint64 // bitmask of dirty 8B words (for fine-grained writeback)
}

// NewConventional returns a 64B-line cache, the GraphDyns (Cache) baseline
// design.
func NewConventional(capacity uint64, ways int, repl Replacement) (Cache, error) {
	return newSetAssoc("conventional-64B", capacity, ways, 64, repl)
}

// NewLine8B returns the 8B-line cache (≈45% tag overhead, the performance
// ideal of Fig. 11).
func NewLine8B(capacity uint64, ways int, repl Replacement) (Cache, error) {
	return newSetAssoc("8B-line", capacity, ways, 8, repl)
}

func newSetAssoc(name string, capacity uint64, ways int, lineBytes uint64, repl Replacement) (*setAssoc, error) {
	if err := checkGeometry(name, capacity, ways, lineBytes); err != nil {
		return nil, err
	}
	nsets := capacity / lineBytes / uint64(ways)
	c := &setAssoc{
		name:      name,
		lineBytes: lineBytes,
		ways:      ways,
		setShift:  bits.TrailingZeros64(lineBytes),
		setMask:   nsets - 1,
		setBits:   bits.TrailingZeros64(nsets),
		repl:      repl,
		sets:      make([][]saLine, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]saLine, ways)
	}
	return c, nil
}

func (c *setAssoc) Name() string       { return c.name }
func (c *setAssoc) Stats() *Stats      { return &c.stats }
func (c *setAssoc) FetchBytes() uint64 { return c.lineBytes }
func (c *setAssoc) Partition([]uint64) {}

func (c *setAssoc) index(addr uint64) (set int, tag uint64, word uint) {
	lineAddr := addr >> c.setShift
	set = int(lineAddr & c.setMask)
	tag = lineAddr >> c.setBits
	word = uint((addr & (c.lineBytes - 1)) >> 3)
	return
}

func (c *setAssoc) Access(addr uint64, write bool) *Result {
	c.tick++
	c.stats.Accesses++
	set, tag, word := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		ln := &lines[i]
		if ln.valid && ln.tag == tag {
			c.stats.Hits++
			ln.lastUsed = c.tick
			ln.rrpv = 0
			ln.touched |= 1 << word
			if write {
				ln.dirty = true
				ln.dirtyW |= 1 << word
			}
			return &hitResult
		}
	}
	// Miss: pick a victim, evict, allocate.
	c.stats.Misses++
	c.stats.LineMisses++
	victim := c.pickVictim(lines)
	c.evict = c.evict[:0]
	if victim.valid {
		c.evict = append(c.evict, c.evictLine(set, victim))
	}
	c.stats.BytesFetched += c.lineBytes
	*victim = saLine{
		valid:    true,
		dirty:    write,
		tag:      tag,
		lastUsed: c.tick,
		rrpv:     rripInsert,
		touched:  1 << word,
	}
	if write {
		victim.dirtyW = 1 << word
	}
	return c.missResult(addr&^(c.lineBytes-1), c.lineBytes)
}

func (c *setAssoc) pickVictim(lines []saLine) *saLine {
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

// evictLine records the useful-byte accounting and produces the line's
// writeback.
func (c *setAssoc) evictLine(set int, ln *saLine) Eviction {
	c.stats.Evictions++
	c.stats.BytesUseful += uint64(bits.OnesCount64(ln.touched)) * 8
	if ln.dirty {
		c.stats.DirtyEvicts++
		c.stats.BytesWritten += c.lineBytes
	}
	return Eviction{Addr: c.lineAddr(set, ln.tag), Bytes: c.lineBytes, Dirty: ln.dirty}
}

func (c *setAssoc) lineAddr(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.setShift
}

func (c *setAssoc) Flush() []Eviction {
	c.evict = c.evict[:0]
	for set := range c.sets {
		for i := range c.sets[set] {
			if ln := &c.sets[set][i]; ln.valid {
				if ev := c.evictLine(set, ln); ev.Dirty {
					c.evict = append(c.evict, ev)
				}
				ln.valid = false
			}
		}
	}
	return c.evict
}
