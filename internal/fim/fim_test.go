package fim

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Gather executes the full §VI gather sequence against (bank, row): open
// the target row, write the offset buffer through one virtual row, then
// read the data buffer through the other virtual row (the intervening
// PRE+ACT create the tWR+tRP+tRCD window that conceals the in-bank column
// reads). It returns the gathered items.
func (h *Host) Gather(bank int, row uint64, offsets []uint16) ([]uint64, error) {
	vy, err := h.issueOffsets(bank, row, offsets)
	if err != nil {
		return nil, err
	}
	if err := h.ensureOpen(bank, otherVirtual(int64(vy))); err != nil {
		return nil, err
	}
	data, err := h.E.Read(bank, ColDataBuf)
	if err != nil {
		return nil, err
	}
	items := make([]uint64, h.E.Cfg.FIMItems)
	for i := range items {
		items[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return items, nil
}

// WriteLine writes one burst at (bank, row, col) with row management.
func (h *Host) WriteLine(bank int, row uint64, col int, data []byte) error {
	if err := h.ensureOpen(bank, row); err != nil {
		return err
	}
	return h.E.Write(bank, col, data)
}

// RowData returns the current contents of a physical row (zero-filled if
// never loaded or written).
func (e *Emulator) RowData(bank int, row uint64) ([]byte, error) {
	b, err := e.bank(bank)
	if err != nil {
		return nil, err
	}
	if r, ok := b.rows[row]; ok {
		out := make([]byte, len(r))
		copy(out, r)
		return out, nil
	}
	return make([]byte, e.Cfg.RowBytes), nil
}

func loadPatternRow(t *testing.T, e *Emulator, bank int, row uint64) []byte {
	t.Helper()
	buf := make([]byte, e.Cfg.RowBytes)
	for off := 0; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], pattern(bank, row, off))
	}
	if err := e.LoadRow(bank, row, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestConventionalReadWrite(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	loadPatternRow(t, e, 0, 3)
	data, err := h.ReadLine(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(data); got != pattern(0, 3, 2*64) {
		t.Errorf("read got %#x", got)
	}
	// Write a line, read it back.
	wr := make([]byte, e.Cfg.BurstSize)
	for i := range wr {
		wr[i] = byte(i)
	}
	if err := h.WriteLine(0, 3, 5, wr); err != nil {
		t.Fatal(err)
	}
	back, err := h.ReadLine(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != wr[i] {
			t.Fatalf("readback byte %d = %d, want %d", i, back[i], wr[i])
		}
	}
}

func TestProtocolViolationsRejected(t *testing.T) {
	e := New(DefaultConfig())
	if _, err := e.Read(0, 0); err == nil {
		t.Error("RD on closed bank accepted")
	}
	if err := e.Write(0, 0, make([]byte, 64)); err == nil {
		t.Error("WR on closed bank accepted")
	}
	if err := e.Precharge(0); err == nil {
		t.Error("PRE on closed bank accepted")
	}
	if err := e.Activate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Activate(0, 2); err == nil {
		t.Error("double ACT accepted")
	}
	if err := e.Write(0, 0, make([]byte, 13)); err == nil {
		t.Error("short burst accepted")
	}
	if _, err := e.Read(0, 1<<20); err == nil {
		t.Error("out-of-row column accepted")
	}
	if _, err := e.Read(99, 0); err == nil {
		t.Error("bad bank accepted")
	}
	if err := e.LoadRow(0, VirtRowY, nil); err == nil {
		t.Error("loading a virtual row accepted")
	}
}

func TestGatherReturnsCorrectItems(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	loadPatternRow(t, e, 2, 7)
	offsets := []uint16{8, 72, 1000 * 8, 16, 0, 4088, 512, 800}
	items, err := h.Gather(2, 7, offsets)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		if want := pattern(2, 7, int(off)); items[i] != want {
			t.Errorf("item %d = %#x, want %#x", i, items[i], want)
		}
	}
	if e.Stats.NGather != 1 {
		t.Errorf("NGather = %d", e.Stats.NGather)
	}
	// Command translation happened: PRE suppressed, virtual ACTs counted.
	if e.Stats.VirtualACT < 2 {
		t.Errorf("VirtualACT = %d, want ≥ 2", e.Stats.VirtualACT)
	}
	if e.Stats.SuppressedPRE < 1 {
		t.Errorf("SuppressedPRE = %d, want ≥ 1", e.Stats.SuppressedPRE)
	}
}

func TestScatterWritesRow(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	loadPatternRow(t, e, 1, 4)
	offsets := []uint16{0, 8, 64, 128, 256, 512, 1024, 2048}
	items := make([]uint64, 8)
	for i := range items {
		items[i] = uint64(0xABC0 + i)
	}
	if err := h.Scatter(1, 4, offsets, items); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(1); err != nil {
		t.Fatal(err)
	}
	row, err := e.RowData(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		if got := binary.LittleEndian.Uint64(row[off:]); got != items[i] {
			t.Errorf("offset %d = %#x, want %#x", off, got, items[i])
		}
	}
	// Untouched words keep the pattern.
	if got := binary.LittleEndian.Uint64(row[16:]); got != pattern(1, 4, 16) {
		t.Errorf("untouched word clobbered: %#x", got)
	}
	if e.Stats.NScatter != 1 {
		t.Errorf("NScatter = %d", e.Stats.NScatter)
	}
}

func TestGatherScatterRoundTripProperty(t *testing.T) {
	f := func(rawOffsets [8]uint16, rawItems [8]uint64) bool {
		cfg := DefaultConfig()
		e := New(cfg)
		h := NewHost(e)
		offsets := make([]uint16, 8)
		seen := map[uint16]bool{}
		for i, r := range rawOffsets {
			o := (r % uint16(cfg.RowBytes/8)) * 8
			for seen[o] { // scatter offsets must be distinct to round-trip
				o = (o + 8) % uint16(cfg.RowBytes)
			}
			seen[o] = true
			offsets[i] = o
		}
		if err := h.Scatter(3, 9, offsets, rawItems[:]); err != nil {
			return false
		}
		got, err := h.Gather(3, 9, offsets)
		if err != nil {
			return false
		}
		for i := range got {
			if got[i] != rawItems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGatherRequiresOpenRow(t *testing.T) {
	e := New(DefaultConfig())
	// Activate a virtual row directly without a physical target.
	if err := e.Activate(0, VirtRowY); err != nil {
		t.Fatal(err)
	}
	burst := make([]byte, 64)
	if err := e.Write(0, ColOffsetBuf, burst); err == nil {
		t.Error("gather with no activated physical row accepted")
	}
}

func TestScatterRequiresOffsets(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.Activate(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Precharge(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Activate(0, VirtRowY); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(0, ColDataBuf, make([]byte, 64)); err == nil {
		t.Error("scatter before offsets accepted")
	}
}

func TestMisalignedOffsetsRejected(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	offsets := []uint16{1, 8, 16, 24, 32, 40, 48, 56} // first is misaligned
	if _, err := h.Gather(0, 0, offsets); err == nil {
		t.Error("misaligned offset accepted")
	}
}

// TestWindowFeasibility is the core §VI validation: with standard DDR4-2400
// spacing the internal 8×tCCD_L operation always finishes inside the
// tWR+tRP+tRCD virtual-row window; with an artificially slow tCCD_L it must
// be detected as a violation.
func TestWindowFeasibility(t *testing.T) {
	cfg := DefaultConfig()
	if 8*cfg.TCCDL > cfg.TWR+cfg.TRP+cfg.TRCD {
		t.Fatal("default config violates the §VI window precondition")
	}
	e := New(cfg)
	h := NewHost(e)
	offs := []uint16{0, 8, 16, 24, 32, 40, 48, 56}
	if _, err := h.Gather(0, 0, offs); err != nil {
		t.Errorf("legal window rejected: %v", err)
	}

	slow := cfg
	slow.TCCDL = 20 // 8×20 = 160 ≫ 50: cannot hide the internal op
	e2 := New(slow)
	h2 := NewHost(e2)
	if _, err := h2.Gather(0, 0, offs); err == nil {
		t.Error("window violation not detected with slow tCCD_L")
	}
}

func TestConsecutiveGathersSameRowSkipReactivation(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	offs := []uint16{0, 8, 16, 24, 32, 40, 48, 56}
	if _, err := h.Gather(0, 11, offs); err != nil {
		t.Fatal(err)
	}
	acts := e.Stats.NACT
	if _, err := h.Gather(0, 11, offs); err != nil {
		t.Fatal(err)
	}
	// Only virtual-row switches: 2 more ACTs (both virtual), no physical.
	if e.Stats.NACT-acts > 2 {
		t.Errorf("second gather issued %d ACTs, want ≤ 2", e.Stats.NACT-acts)
	}
	phys, err := e.PhysOpen(0)
	if err != nil || phys != 11 {
		t.Errorf("target row no longer latched: %d %v", phys, err)
	}
}

func TestHostOffsetCountValidation(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHost(e)
	if _, err := h.Gather(0, 0, []uint16{0, 8}); err == nil {
		t.Error("wrong offset count accepted")
	}
	if err := h.Scatter(0, 0, []uint16{0, 8, 16, 24, 32, 40, 48, 56}, []uint64{1}); err == nil {
		t.Error("item/offset mismatch accepted")
	}
}

func TestMicrobenchShapes(t *testing.T) {
	cfg := DefaultConfig()
	const region = 512 << 10 // scaled-down Fig. 9 region
	single8, err := Microbench(cfg, region, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// §VII-B: "Piccolo-FIM achieves high speedup near the theoretical value
	// of 4×, which is reached at the stride of 8."
	if s := single8.Speedup(); s < 2.5 || s > 4.6 {
		t.Errorf("single-row stride-8 speedup %.2f, want near 4", s)
	}
	single4, err := Microbench(cfg, region, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	// Stride 4: two words per 64B burst halve the baseline penalty.
	if single4.Speedup() >= single8.Speedup() {
		t.Errorf("stride-4 speedup %.2f not below stride-8 %.2f",
			single4.Speedup(), single8.Speedup())
	}
	multi8, err := Microbench(cfg, region, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-row: activation latency takes a share, speedup is lower but
	// still significant.
	if multi8.Speedup() >= single8.Speedup() {
		t.Errorf("multi-row %.2f not below single-row %.2f", multi8.Speedup(), single8.Speedup())
	}
	if multi8.Speedup() < 1.2 {
		t.Errorf("multi-row stride-8 speedup %.2f, want still significant (>1.2)", multi8.Speedup())
	}
}

func TestMicrobenchRejectsBadParams(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Microbench(cfg, 1<<20, 0, false); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := Microbench(cfg, 1<<20, 100000, false); err == nil {
		t.Error("oversized stride accepted")
	}
	if _, err := Microbench(cfg, 8, 4, false); err == nil {
		t.Error("tiny region accepted")
	}
}

func TestMicrobenchSweepRuns(t *testing.T) {
	rs, err := MicrobenchSweep(DefaultConfig(), 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("sweep returned %d points, want 8", len(rs))
	}
	for _, r := range rs {
		if r.Speedup() <= 0 {
			t.Errorf("stride %d multiRow %v: no speedup data", r.Stride, r.MultiRow)
		}
	}
}
