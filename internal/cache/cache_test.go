package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const testCap = 8 << 10

func allDesigns(t *testing.T) map[string]Cache {
	t.Helper()
	out := map[string]Cache{}
	for _, d := range append(Designs(), DesignConventional) {
		c, err := New(d, testCap, 8)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		out[d] = c
	}
	return out
}

func TestFactory(t *testing.T) {
	for name, c := range allDesigns(t) {
		if c.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		if c.FetchBytes() != 8 && c.FetchBytes() != 64 {
			t.Errorf("%s: odd fetch granularity %d", name, c.FetchBytes())
		}
	}
	if _, err := New("bogus", testCap, 8); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := New(DesignConventional, 0, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(DesignConventional, 1000, 8); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	for _, d := range []string{DesignConventional, "amoeba"} {
		if _, err := New(d, testCap, 0); err == nil {
			t.Errorf("%s: zero ways accepted", d)
		}
	}
	if _, err := newPiccolo(testCap, 0, LRU); err == nil {
		t.Error("piccolo: zero ways accepted")
	}
	if _, err := NewPiccolo(1000, LRU); err == nil {
		t.Error("piccolo: capacity of a partial line accepted")
	}
}

func TestBasicHitMiss(t *testing.T) {
	for name, c := range allDesigns(t) {
		r := c.Access(0x1000, false)
		if r.Hit {
			t.Errorf("%s: cold access hit", name)
		}
		if r.Fetch.Bytes == 0 {
			t.Errorf("%s: miss produced no fetch", name)
		}
		r = c.Access(0x1000, false)
		if !r.Hit {
			t.Errorf("%s: second access missed", name)
		}
		st := c.Stats()
		if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
			t.Errorf("%s: stats %+v", name, *st)
		}
	}
}

func TestConventionalFetches64B(t *testing.T) {
	c, _ := New(DesignConventional, testCap, 8)
	r := c.Access(0x1008, false)
	if r.Fetch != (Fetch{Addr: 0x1000, Bytes: 64}) {
		t.Errorf("fetch = %+v, want aligned 64B", r.Fetch)
	}
	// Neighboring word in the same line: spatial hit.
	if r := c.Access(0x1010, false); !r.Hit {
		t.Error("same-line word missed")
	}
}

func TestFineGrainedFetch8B(t *testing.T) {
	for _, d := range Designs() {
		c, err := New(d, testCap, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := c.Access(0x1008, false)
		if r.Fetch != (Fetch{Addr: 0x1008, Bytes: 8}) {
			t.Errorf("%s: fetch = %+v, want the 8B word", d, r.Fetch)
		}
		// A neighboring word is NOT brought in by a fine-grained fill.
		if r := c.Access(0x1010, false); r.Hit {
			t.Errorf("%s: neighbor hit after 8B fill", d)
		}
	}
}

func TestDirtyWritebackOnEvict(t *testing.T) {
	for name, c := range allDesigns(t) {
		c.Access(0x2000, true) // dirty word
		evs := c.Flush()
		found := false
		for _, e := range evs {
			if e.Dirty && e.Addr <= 0x2000 && 0x2000 < e.Addr+e.Bytes {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: dirty word not written back on flush (%v)", name, evs)
		}
		if len(c.Flush()) != 0 {
			t.Errorf("%s: second flush returned evictions", name)
		}
	}
}

func TestCleanFlushProducesNoWritebacks(t *testing.T) {
	for name, c := range allDesigns(t) {
		c.Access(0x2000, false)
		c.Access(0x4000, false)
		if evs := c.Flush(); len(evs) != 0 {
			t.Errorf("%s: clean data written back: %v", name, evs)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Direct-mapped-ish scenario: tiny cache, force conflict.
	c, err := New(DesignConventional, 512, 2) // 4 sets × 2 ways × 64B
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(4 * 64) // same set every 256B
	c.Access(0*setStride, false)
	c.Access(1*setStride, false)
	c.Access(0*setStride, false)     // refresh way 0
	r := c.Access(2*setStride, true) // conflict: should evict addr 256 (LRU)
	if r.Hit {
		t.Fatal("conflict access hit")
	}
	if len(r.Evictions) != 1 || r.Evictions[0].Addr != 1*setStride {
		t.Errorf("evicted %+v, want LRU line at %d", r.Evictions, setStride)
	}
}

func TestSectoredLineOccupancyWaste(t *testing.T) {
	// §V-A: a sectored cache allocates an entire line per sector, so N
	// single sectors spread over N line ranges occupy N lines even though
	// their data is only N×8B. The 8B-line cache holds far more distinct
	// words in the same capacity.
	sec, _ := New("sectored", 1<<10, 8) // 16 lines total
	fine, _ := New("8b-line", 1<<10, 8) // 128 words total
	// Touch 60 random words spread over 64KB (each almost surely in its own
	// 64B range), twice; the second pass measures retention.
	rng := rand.New(rand.NewSource(2))
	words := make([]uint64, 60)
	for i := range words {
		words[i] = (rng.Uint64() % (64 << 10)) &^ 7
	}
	for _, w := range words {
		sec.Access(w, false)
		fine.Access(w, false)
	}
	var secHits, fineHits int
	for _, w := range words {
		if sec.Access(w, false).Hit {
			secHits++
		}
		if fine.Access(w, false).Hit {
			fineHits++
		}
	}
	if fineHits <= secHits {
		t.Errorf("8B-line hits %d not above sectored %d", fineHits, secHits)
	}
}

func TestPiccoloActsLike8BLineWithSingleTag(t *testing.T) {
	// §V-A: with one tag (tile-confined addresses), Piccolo-cache behaves
	// like an 8B-line cache of the same capacity.
	pc, _ := NewPiccolo(testCap, LRU)
	fine, _ := New("8b-line", testCap, 8)
	rng := rand.New(rand.NewSource(7))
	region := uint64(64 << 10) // 8× capacity: heavy conflict traffic
	var pcHits, fineHits uint64
	for i := 0; i < 20000; i++ {
		addr := (rng.Uint64() % (region / 8)) * 8
		if pc.Access(addr, i%3 == 0).Hit {
			pcHits++
		}
		if fine.Access(addr, i%3 == 0).Hit {
			fineHits++
		}
	}
	pcRate := float64(pcHits) / 20000
	fineRate := float64(fineHits) / 20000
	if pcRate < fineRate-0.05 {
		t.Errorf("piccolo hit rate %.3f far below 8B-line %.3f", pcRate, fineRate)
	}
}

func TestPiccoloSectorEvictionIsFineGrained(t *testing.T) {
	pc, _ := newPiccolo(512, 4, LRU) // 4 ways × 1 set
	// Fill one sector, then collide on the same (set, fg-offset) with a
	// different fg-tag until a sector eviction occurs.
	pc.Access(0, true)
	var evicted []Eviction
	// Same set/fg-offset, different fg-tag: stride = sectors*8*sets.
	for i := uint64(1); i < 16; i++ {
		r := pc.Access(i*128*4, true)
		evicted = append(evicted, r.Evictions...)
	}
	for _, e := range evicted {
		if e.Bytes != 8 {
			t.Errorf("piccolo evicted %d bytes at once, want 8B sectors", e.Bytes)
		}
	}
	if len(evicted) == 0 {
		t.Error("no sector evictions observed")
	}
}

func TestPiccoloWayPartitioning(t *testing.T) {
	p, err := newPiccolo(testCap, 8, LRU)
	if err != nil {
		t.Fatal(err)
	}
	// A tile over two tags, the second entered misaligned: 4 ways each.
	tagStride := uint64(piccoloLineBytes) << (p.setBits + fgTagBits)
	p.Partition(tagStride/2, 2*tagStride)
	if q := p.quotaOf(0); q != 4 {
		t.Errorf("quota = %d, want 4", q)
	}
	if q := p.quotaOf(2); q != 1 {
		t.Errorf("foreign tag quota = %d, want 1", q)
	}
	p.Partition(0, 9*tagStride) // nine tags: at least one way each
	if q := p.quotaOf(8); q != 1 {
		t.Errorf("nine-tag quota = %d, want 1", q)
	}
	p.Partition(0, 0)
	if q := p.quotaOf(0); q != 8 {
		t.Errorf("unpartitioned quota = %d, want ways", q)
	}
}

// TestPiccoloPartitionBoundsOccupancy floods one tag of a two-tag tile with
// fg-tags that conflict on one fg-offset: the tag may claim only its 2 of
// 4 ways, and then replaces sectors within them.
func TestPiccoloPartitionBoundsOccupancy(t *testing.T) {
	p, _ := newPiccolo(512, 4, LRU) // 4 ways, 1 set
	tagStride := uint64(piccoloLineBytes) << fgTagBits
	p.Partition(0, 2*tagStride)
	for i := uint64(0); i < 32; i++ {
		p.Access(i*piccoloLineBytes, false) // tag 0, fg-offset 0, fg-tag i
	}
	linesA := 0
	for _, ln := range p.lines {
		if ln.valid != 0 && ln.tag == 0 {
			linesA++
		}
	}
	if linesA != 2 {
		t.Errorf("tag A occupies %d ways, quota 2", linesA)
	}
}

func TestPiccoloAddressRoundTrip(t *testing.T) {
	p, _ := newPiccolo(testCap, 8, LRU)
	f := func(raw uint64) bool {
		addr := (raw % (1 << 40)) &^ 7
		tag, fg, set, off := p.split(addr)
		return p.join(tag, fg, set, off) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TagOverheadFraction returns tag-storage bits as a fraction of data bits
// — the §V-A cost comparison (≈14.6% for Piccolo vs ≈45% for the 8B-line
// cache at the paper's 48-bit addressing).
func (c *piccolo) TagOverheadFraction(addrBits int) float64 {
	tagBits := max(addrBits-fgTagBits-c.setBits-fgOffBits-3, 0)
	perLine := tagBits + piccoloSectors*fgTagBits
	return float64(perLine) / float64(piccoloLineBytes*8)
}

func TestPiccoloTagOverhead(t *testing.T) {
	p, _ := newPiccolo(4<<20, 8, LRU) // the paper's 4MB geometry
	over := p.TagOverheadFraction(48)
	// §V-A: tag 2.05% + fg-tag 12.50% ≈ 14.6%.
	if over < 0.10 || over > 0.20 {
		t.Errorf("piccolo tag overhead %.3f, want ≈0.146", over)
	}
	// 8B-line: 29-bit tag per 64-bit word ≈ 45%.
	fineOver := 29.0 / 64.0
	if over > fineOver/2 {
		t.Errorf("piccolo overhead %.3f not well below 8B-line %.3f", over, fineOver)
	}
}

func TestUsefulByteTracking(t *testing.T) {
	// Conventional cache: touch 1 word per line, evict → 8/64 useful.
	c, _ := New(DesignConventional, 512, 2)
	for i := uint64(0); i < 64; i++ {
		c.Access(i*64, false)
	}
	c.Flush()
	st := c.Stats()
	if st.BytesFetched == 0 {
		t.Fatal("no fetch accounting")
	}
	frac := st.UsefulFraction()
	if frac < 0.10 || frac > 0.15 {
		t.Errorf("useful fraction %.3f, want 1/8", frac)
	}
	// Fine-grained designs fetch only what they use.
	f, _ := New("8b-line", 512, 2)
	for i := uint64(0); i < 64; i++ {
		f.Access(i*64, false)
	}
	f.Flush()
	if got := f.Stats().UsefulFraction(); got < 0.99 {
		t.Errorf("8B-line useful fraction %.3f, want ~1", got)
	}
}

func TestVariantCapacityOrdering(t *testing.T) {
	// Effective capacity: amoeba < graphfire < scrabble < 8B-line; under a
	// working set that overflows the smaller ones, hit rates must follow.
	run := func(c Cache) float64 {
		rng := rand.New(rand.NewSource(3))
		hits := 0
		const n = 30000
		for i := 0; i < n; i++ {
			addr := (rng.Uint64() % (16 << 7)) * 8 // 16KB region over 8-16KB caches
			if c.Access(addr, false).Hit {
				hits++
			}
		}
		return float64(hits) / n
	}
	am, _ := New("amoeba", testCap*2, 8)
	gf, _ := New("graphfire", testCap*2, 8)
	sc, _ := New("scrabble", testCap*2, 8)
	fl, _ := New("8b-line", testCap*2, 8)
	ra, rg, rs, rf := run(am), run(gf), run(sc), run(fl)
	if !(ra <= rg+0.02 && rg <= rs+0.02 && rs <= rf+0.02) {
		t.Errorf("hit-rate ordering violated: amoeba %.3f graphfire %.3f scrabble %.3f 8b %.3f", ra, rg, rs, rf)
	}
}

func TestPiccoloRRIPWorks(t *testing.T) {
	c, err := NewPiccolo(testCap, RRIP)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		c.Access((rng.Uint64()%(1<<14))&^7, rng.Intn(2) == 0)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate behaviour: %+v", st)
	}
	c.Flush()
}

// Model-based property test: every cache must agree with a simple presence
// model — after an access to a word, an immediate re-access must hit; and
// total accesses == hits + misses.
func TestPresenceInvariantProperty(t *testing.T) {
	f := func(seed int64, design uint8) bool {
		designs := append(Designs(), DesignConventional)
		d := designs[int(design)%len(designs)]
		c, err := New(d, 4<<10, 8)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			addr := (rng.Uint64() % (1 << 15)) &^ 7
			c.Access(addr, rng.Intn(2) == 0)
			if !c.Access(addr, false).Hit {
				return false // immediate re-access must hit
			}
		}
		st := c.Stats()
		return st.Accesses == st.Hits+st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// Eviction addresses must reconstruct to pieces that were actually fetched
// (line/sector and split/join consistency under pressure), for every design
// and for a one-set Piccolo-cache.
func TestEvictionAddressesValid(t *testing.T) {
	caches := allDesigns(t)
	caches["piccolo-1set"], _ = newPiccolo(512, 4, LRU)
	for name, c := range caches {
		fetched := map[Fetch]bool{}
		rng := rand.New(rand.NewSource(5))
		var evictions []Eviction
		for i := 0; i < 3000; i++ {
			r := c.Access((rng.Uint64()%(1<<16))&^7, true)
			if !r.Hit {
				fetched[r.Fetch] = true
			}
			evictions = append(evictions, r.Evictions...)
		}
		evictions = append(evictions, c.Flush()...)
		if len(evictions) == 0 {
			t.Errorf("%s: no evictions", name)
		}
		for _, e := range evictions {
			if !fetched[Fetch{Addr: e.Addr, Bytes: e.Bytes}] {
				t.Fatalf("%s: evicted %dB at %#x, never fetched", name, e.Bytes, e.Addr)
			}
		}
	}
}

// TestPiccoloAccessDoesNotAllocate: for every design, hits, sector misses
// and line misses (with their multi-sector evictions) all return views of
// the cache's own scratch storage.
func TestPiccoloAccessDoesNotAllocate(t *testing.T) {
	for name, c := range allDesigns(t) {
		c.Access(0x40, true)
		if allocs := testing.AllocsPerRun(100, func() {
			if !c.Access(0x40, true).Hit {
				t.Fatalf("%s: resident word missed", name)
			}
		}); allocs != 0 {
			t.Errorf("%s hit: %v allocs per access, want 0", name, allocs)
		}

		// A stream far larger than the cache: nearly every access misses,
		// and once the cache is full every miss evicts dirty data.
		x := uint64(88172645463325252)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return (x % (64 * testCap)) &^ 7
		}
		misses, evictions := 0, 0
		miss := func() {
			res := c.Access(next(), true)
			if !res.Hit {
				misses++
				evictions += len(res.Evictions)
				if res.Fetch.Bytes != c.FetchBytes() {
					t.Fatalf("%s: miss fetch = %+v", name, res.Fetch)
				}
			}
		}
		for i := 0; i < 4*testCap/8; i++ {
			miss() // fill the cache and grow the eviction scratch
		}
		misses, evictions = 0, 0
		if allocs := testing.AllocsPerRun(2000, miss); allocs != 0 {
			t.Errorf("%s miss: %v allocs per access, want 0", name, allocs)
		}
		if misses < 1900 || evictions < misses/2 {
			t.Errorf("%s: the miss stream produced %d misses and %d evictions in 2001 accesses", name, misses, evictions)
		}
	}
}

// BenchmarkCacheAccess times one Access per design on the xorshift stream
// the repository benchmark's cache.access_ns layer uses: a 32KB cache, 8B
// words over 1MB, every fourth access a write.
func BenchmarkCacheAccess(b *testing.B) {
	for _, d := range append(Designs(), DesignConventional) {
		b.Run(d, func(b *testing.B) {
			c, err := New(d, 32<<10, 8)
			if err != nil {
				b.Fatal(err)
			}
			x := uint64(88172645463325252)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				c.Access((x%(1<<20))&^7, i%4 == 0)
			}
		})
	}
}
