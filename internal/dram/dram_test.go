package dram

import (
	"testing"
	"testing/quick"

	"piccolo/internal/sim"
)

func newDDR4x16(t *testing.T, q *sim.Queue) *System {
	t.Helper()
	s, err := New(DDR4(16), q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestByNameSpellings: a preset resolves under any case, with or without
// the enhanced suffix, and "" is the paper default.
func TestByNameSpellings(t *testing.T) {
	for name, want := range map[string]Config{
		"":        DDR4(16),
		"DDR4x16": DDR4(16),
		"ddr4x16": DDR4(16),
		"ddr4x4":  DDR4(4),
		"LPDDR4":  LPDDR4(),
		"hbm-enh": Enhanced(HBM()),
		"HBM-ENH": Enhanced(HBM()),
	} {
		got, err := ByName(name)
		if err != nil || got != want {
			t.Errorf("ByName(%q) = %q, %v; want %q", name, got.Name, err, want.Name)
		}
	}
	for _, name := range []string{"-enh", "SRAM", "hbm-enh-enh"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{DDR4(4), DDR4(8), DDR4(16), LPDDR4(), GDDR5(), HBM()} {
		c := cfg
		if err := c.finalize(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if c.PeakBandwidthGBps() <= 0 {
			t.Errorf("%s: no bandwidth", cfg.Name)
		}
		// §VI feasibility: the FIM internal operation must fit in the
		// virtual-row window (the paper adjusts tWR for products where it
		// does not; our presets are chosen to satisfy it directly).
		window := c.Timing.TWR + c.Timing.TRP + c.Timing.TRCD
		if internal := uint64(c.FIMItems) * c.Timing.TCCD; internal > window {
			t.Errorf("%s: internal op %d cycles exceeds virtual-row window %d", c.Name, internal, window)
		}
	}
}

func TestOffsetBurstCounts(t *testing.T) {
	// §IV-B: x16 needs one offset burst; more chips duplicate offsets.
	cases := []struct {
		cfg  Config
		want int
	}{
		{DDR4(16), 1},
		{DDR4(8), 2},
		{DDR4(4), 4},
		{Enhanced(DDR4(4)), 3}, // 11-bit offsets (§VIII-B)
		{Enhanced(HBM()), 1},   // long burst
	}
	for _, c := range cases {
		if got := c.cfg.fimOffsetBursts; got != c.want {
			t.Errorf("%s: offset bursts = %d, want %d", c.cfg.Name, got, c.want)
		}
	}
}

func TestEnhancedHBMWidensOp(t *testing.T) {
	base, enh := HBM(), Enhanced(HBM())
	if base.FIMItems != 4 {
		t.Errorf("HBM items = %d, want 4 (32B burst)", base.FIMItems)
	}
	if enh.FIMItems != 8 {
		t.Errorf("enhanced HBM items = %d, want 8", enh.FIMItems)
	}
	if enh.FIMDataBursts != 2 {
		t.Errorf("enhanced HBM data bursts = %d, want 2", enh.FIMDataBursts)
	}
}

func TestAddressMappingRoundTrip(t *testing.T) {
	cfg := DDR4(16)
	m := newAddrMap(&cfg)
	f := func(addr uint64) bool {
		addr %= 1 << 34
		var l, o Loc
		m.decode(addr, &l)
		if l.Channel != 0 { // one channel in this config
			return false
		}
		if l.Rank < 0 || l.Rank >= cfg.Ranks || l.Bank < 0 || l.Bank >= cfg.Banks {
			return false
		}
		if l.ByteInRow >= cfg.RowBytes {
			return false
		}
		// Two addresses in the same aligned row region share a row key.
		other := addr ^ 8 // flip a within-row bit
		m.decode(other, &o)
		if m.rowKey(o) != m.rowKey(l) && other/cfg.RowBytes == addr/cfg.RowBytes {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyGroupsRowSizedRegions(t *testing.T) {
	cfg := DDR4(16) // 1 channel: rows are contiguous 8KB regions
	q := &sim.Queue{}
	s := MustNew(cfg, q)
	base := uint64(1 << 20)
	key := s.RowKeyOf(base)
	for off := uint64(0); off < cfg.RowBytes; off += 512 {
		if s.RowKeyOf(base+off) != key {
			t.Fatalf("address %d left the row", off)
		}
	}
	if s.RowKeyOf(base+cfg.RowBytes) == key {
		t.Error("next row shares the key")
	}
	// ByteInRow must be unique per 8B word within the row.
	seen := map[uint64]bool{}
	for off := uint64(0); off < cfg.RowBytes; off += 8 {
		b := s.Decode(base + off).ByteInRow
		if seen[b] {
			t.Fatalf("duplicate ByteInRow %d", b)
		}
		seen[b] = true
	}
}

func TestReadCompletesWithPlausibleLatency(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	var done uint64
	s.Submit(&Request{Kind: ReqRead, Addr: 4096, Class: ClassVTemp,
		OnComplete: func(_ *Request, now uint64) { done = now }})
	q.Drain()
	tm := s.Cfg.Timing
	min := tm.TRCD + tm.TCL + tm.TBL // ACT + read latency + burst
	if done < min {
		t.Errorf("read completed at %d, faster than physically possible (%d)", done, min)
	}
	if done > 4*min {
		t.Errorf("idle-system read took %d cycles, want near %d", done, min)
	}
	if s.Stats.NACT != 1 || s.Stats.NRD != 1 || s.Stats.ReadTxns != 1 {
		t.Errorf("stats: ACT=%d RD=%d txns=%d", s.Stats.NACT, s.Stats.NRD, s.Stats.ReadTxns)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after drain", s.Pending())
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	var first, hit, miss uint64
	s.Submit(&Request{Kind: ReqRead, Addr: 0, OnComplete: func(_ *Request, n uint64) { first = n }})
	q.Drain()
	s.Submit(&Request{Kind: ReqRead, Addr: 64, OnComplete: func(_ *Request, n uint64) { hit = n }})
	q.Drain()
	hitLat := hit - first
	// Same bank, different row → precharge + activate.
	rowStride := s.Cfg.RowBytes * uint64(s.Cfg.Channels*s.Cfg.Ranks*s.Cfg.Banks)
	s.Submit(&Request{Kind: ReqRead, Addr: rowStride, OnComplete: func(_ *Request, n uint64) { miss = n }})
	q.Drain()
	missLat := miss - hit
	if hitLat >= missLat {
		t.Errorf("row hit latency %d not better than row miss %d", hitLat, missLat)
	}
	if s.Stats.NPRE == 0 {
		t.Error("row conflict issued no precharge")
	}
}

func TestSequentialReadsApproachPeakBandwidth(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	const n = 512
	var last uint64
	for i := 0; i < n; i++ {
		s.Submit(&Request{Kind: ReqRead, Addr: uint64(i) * 64,
			OnComplete: func(_ *Request, now uint64) { last = now }})
	}
	q.Drain()
	bytes := float64(n * 64)
	gbps := bytes / float64(last)
	peak := s.Cfg.PeakBandwidthGBps()
	if gbps < 0.7*peak {
		t.Errorf("sequential stream got %.1f GB/s, want ≥70%% of peak %.1f", gbps, peak)
	}
}

func TestBusNeverOversubscribed(t *testing.T) {
	// The sum of burst cycles cannot exceed channels × elapsed time.
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	var last uint64
	for i := 0; i < 300; i++ {
		addr := uint64(i*977) % (1 << 22) & ^uint64(63)
		kind := ReqRead
		if i%3 == 0 {
			kind = ReqWrite
		}
		s.Submit(&Request{Kind: kind, Addr: addr, OnComplete: func(_ *Request, n uint64) { last = n }})
	}
	q.Drain()
	if s.Stats.BusBusy > last*uint64(s.Cfg.Channels) {
		t.Errorf("bus busy %d cycles exceeds wall clock %d × %d channels",
			s.Stats.BusBusy, last, s.Cfg.Channels)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestRandomReadsSlowerThanSequential(t *testing.T) {
	run := func(stride uint64) uint64 {
		q := &sim.Queue{}
		s := newDDR4x16(t, q)
		var last uint64
		for i := 0; i < 256; i++ {
			s.Submit(&Request{Kind: ReqRead, Addr: uint64(i) * stride,
				OnComplete: func(_ *Request, now uint64) { last = now }})
		}
		q.Drain()
		return last
	}
	seq := run(64)
	rnd := run(1 << 17) // every access a new row in a new place
	if rnd <= seq {
		t.Errorf("random pattern (%d) not slower than sequential (%d)", rnd, seq)
	}
}

func TestGatherMovesFewerBusBytesThanReads(t *testing.T) {
	// 8 random words in one row: conventional = 8 bursts; Piccolo = offset
	// burst + data burst (§IV-B: 4× ideal gain).
	conv := func() *Stats {
		q := &sim.Queue{}
		s := newDDR4x16(t, q)
		for i := 0; i < 8; i++ {
			s.Submit(&Request{Kind: ReqRead, Addr: uint64(i) * 512, Class: ClassVTemp})
		}
		q.Drain()
		return &s.Stats
	}()
	fim := func() *Stats {
		q := &sim.Queue{}
		s := newDDR4x16(t, q)
		s.Submit(&Request{Kind: ReqGather, Addr: 0, Items: 8, Class: ClassVTemp})
		q.Drain()
		return &s.Stats
	}()
	if conv.TotalTxns() != 8 {
		t.Errorf("conventional txns = %d, want 8", conv.TotalTxns())
	}
	if fim.TotalTxns() != 2 {
		t.Errorf("gather txns = %d, want 2 (offsets + data)", fim.TotalTxns())
	}
	if fim.InternalColOps != 8 {
		t.Errorf("gather internal ops = %d, want 8", fim.InternalColOps)
	}
	if fim.NGather != 1 {
		t.Errorf("NGather = %d", fim.NGather)
	}
}

func TestGatherLatencyCoversVirtualRowWindow(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	var done uint64
	s.Submit(&Request{Kind: ReqGather, Addr: 0, Items: 8,
		OnComplete: func(_ *Request, now uint64) { done = now }})
	q.Drain()
	tm := s.Cfg.Timing
	// ACT + offset write + window + data burst is the §VI sequence.
	min := tm.TRCD + tm.TCWL + tm.TBL + tm.TWR + tm.TRP + tm.TRCD + tm.TBL
	if done < min {
		t.Errorf("gather done at %d, below the §VI command sequence minimum %d", done, min)
	}
}

func TestScatterAccounting(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	s.Submit(&Request{Kind: ReqScatter, Addr: 0, Items: 8, Class: ClassWriteback})
	q.Drain()
	if s.Stats.NScatter != 1 {
		t.Errorf("NScatter = %d", s.Stats.NScatter)
	}
	if s.Stats.WriteTxns != 2 { // offsets + data
		t.Errorf("write txns = %d, want 2", s.Stats.WriteTxns)
	}
	if s.Stats.InternalColOps != 8 {
		t.Errorf("internal ops = %d, want 8", s.Stats.InternalColOps)
	}
}

func TestPartialGatherStillTwoTransfers(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	s.Submit(&Request{Kind: ReqGather, Addr: 0, Items: 3})
	q.Drain()
	if s.Stats.TotalTxns() != 2 {
		t.Errorf("partial gather txns = %d, want 2", s.Stats.TotalTxns())
	}
	if s.Stats.InternalColOps != 3 {
		t.Errorf("internal ops = %d, want 3", s.Stats.InternalColOps)
	}
}

func TestGatherItemBoundsChecked(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	defer func() {
		if recover() == nil {
			t.Error("oversized gather accepted")
		}
	}()
	s.Submit(&Request{Kind: ReqGather, Addr: 0, Items: 99})
}

func TestNMPGather(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	items := []uint64{0, 8192, 16384, 24576, 32768, 40960, 49152, 57344}
	var done uint64
	s.Submit(&Request{Kind: ReqNMPGather, Addr: items[0], ItemAddrs: items,
		Class: ClassVTemp, OnComplete: func(_ *Request, n uint64) { done = n }})
	q.Drain()
	if done == 0 {
		t.Fatal("NMP gather never completed")
	}
	// Host bus: descriptor + result only.
	if s.Stats.TotalTxns() != 2 {
		t.Errorf("host txns = %d, want 2", s.Stats.TotalTxns())
	}
	// DRAM-side: one full burst per item on the rank-internal bus.
	if s.Stats.InternalColOps != 8 {
		t.Errorf("internal ops = %d, want 8", s.Stats.InternalColOps)
	}
	if s.Stats.InternalBytes != 8*64 {
		t.Errorf("internal bytes = %d, want full bursts (512)", s.Stats.InternalBytes)
	}
	if s.Stats.NNMPGather != 1 {
		t.Errorf("NNMPGather = %d", s.Stats.NNMPGather)
	}
}

func TestNMPRequiresItemAddrs(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	defer func() {
		if recover() == nil {
			t.Error("NMP gather without items accepted")
		}
	}()
	s.Submit(&Request{Kind: ReqNMPGather, Addr: 0})
}

func TestPIMUpdateAccounting(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	for i := 0; i < 8; i++ {
		s.Submit(&Request{Kind: ReqPIMUpdate, Addr: uint64(i) * 8, Class: ClassVTemp})
	}
	q.Drain()
	if s.Stats.NPIMUpdate != 8 {
		t.Errorf("NPIMUpdate = %d", s.Stats.NPIMUpdate)
	}
	// GraphPIM-style: one request packet (bus transfer) per offloaded atomic.
	if s.Stats.WriteTxns != 8 {
		t.Errorf("write txns = %d, want 8", s.Stats.WriteTxns)
	}
	if s.Stats.InternalColOps != 16 { // RMW = 2 ops each
		t.Errorf("internal ops = %d, want 16", s.Stats.InternalColOps)
	}
	if s.Stats.InternalReads != 8 || s.Stats.InternalWrites != 8 {
		t.Errorf("internal split = %d/%d, want 8/8", s.Stats.InternalReads, s.Stats.InternalWrites)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	q := &sim.Queue{}
	s := newDDR4x16(t, q)
	rowStride := s.Cfg.RowBytes * uint64(s.Cfg.Channels*s.Cfg.Ranks*s.Cfg.Banks)
	// Open row 0 with a first read, then interleave conflicting rows; the
	// FR-FCFS scheduler should service row-0 hits first, reducing ACTs
	// versus strict FIFO (which would alternate rows every request).
	var order []uint64
	mk := func(addr uint64) *Request {
		return &Request{Kind: ReqRead, Addr: addr,
			OnComplete: func(*Request, uint64) { order = append(order, addr) }}
	}
	s.Submit(mk(0))
	s.Submit(mk(rowStride))      // row 1
	s.Submit(mk(64))             // row 0 hit
	s.Submit(mk(128))            // row 0 hit
	s.Submit(mk(rowStride + 64)) // row 1
	q.Drain()
	if len(order) != 5 {
		t.Fatalf("completions = %d", len(order))
	}
	// Row-0 addresses must all complete before any row-1 address.
	if order[1] != 64 || order[2] != 128 {
		t.Errorf("completion order %v: row hits not prioritized", order)
	}
	if s.Stats.NACT != 2 {
		t.Errorf("ACTs = %d, want 2 (one per row)", s.Stats.NACT)
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	run := func(channels int) uint64 {
		cfg := WithChannels(DDR4(16), channels, 4)
		q := &sim.Queue{}
		s := MustNew(cfg, q)
		var last uint64
		for i := 0; i < 512; i++ {
			s.Submit(&Request{Kind: ReqRead, Addr: uint64(i) * 64,
				OnComplete: func(_ *Request, n uint64) { last = n }})
		}
		q.Drain()
		return last
	}
	one, two := run(1), run(2)
	if float64(two) > 0.7*float64(one) {
		t.Errorf("2 channels took %d vs %d for 1: no parallel speedup", two, one)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{NACT: 1, ReadTxns: 2, BusBytesRead: 128}
	a.PerClass[ClassVTemp].ReadTxns = 2
	b := Stats{NACT: 3, WriteTxns: 1, BusBytesWrite: 64}
	b.PerClass[ClassVTemp].WriteTxns = 1
	a.Add(&b)
	if a.NACT != 4 || a.TotalTxns() != 3 || a.TotalBusBytes() != 192 {
		t.Errorf("merged stats wrong: %+v", a)
	}
	if a.PerClass[ClassVTemp].ReadTxns != 2 || a.PerClass[ClassVTemp].WriteTxns != 1 {
		t.Error("per-class merge wrong")
	}
}

func TestKindAndClassStrings(t *testing.T) {
	kinds := []ReqKind{ReqRead, ReqWrite, ReqGather, ReqScatter, ReqNMPGather, ReqNMPScatter, ReqPIMUpdate, ReqKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	for c := Class(0); c <= classOther; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty string", c)
		}
	}
	for _, k := range []Kind{kindDDR4, kindLPDDR4, kindGDDR5, kindHBM, Kind(9)} {
		if k.String() == "" {
			t.Errorf("memory kind %d has empty string", k)
		}
	}
}
