package dram

import (
	"math/rand"
	"testing"
)

// keyShapes are the address-map shapes the key tests cover: every preset,
// the enhanced variants, two channel/rank sweeps of Fig. 16 and the short
// rows core.Run scales a tile's DRAM footprint down to.
func keyShapes() []Config {
	shortRows := DDR4(16)
	shortRows.Name, shortRows.RowBytes = "DDR4x16-row512", 512
	return []Config{
		DDR4(4), DDR4(8), DDR4(16), LPDDR4(), GDDR5(), HBM(),
		Enhanced(DDR4(4)), Enhanced(HBM()),
		WithChannels(DDR4(16), 2, 2), WithChannels(HBM(), 4, 2),
		shortRows,
	}
}

// rowKey is the FIM collection key as it is defined: (row, bank, rank,
// channel) of the decoded location, most significant first.
func (m *addrMap) rowKey(l Loc) uint64 {
	key := l.Row
	key = key<<m.bankBits | uint64(l.Bank)
	key = key<<m.rankBits | uint64(l.Rank)
	key = key<<m.chBits | uint64(l.Channel)
	return key
}

// rankKey is the NMP collection key as it is defined: (rank, channel).
func (m *addrMap) rankKey(l Loc) uint64 {
	return uint64(l.Rank)<<m.chBits | uint64(l.Channel)
}

// TestKeyOfMatchesDecode pins the collection keys. rowKeyOf and rankKeyOf
// work on the address directly; they must agree with the definition —
// rowKey and rankKey of the decoded location — on every address, and the
// definition itself must keep its packing: (row, bank, rank, channel) from
// the top. The directed values are computed by hand from the field layout,
// because nothing else in the repo notices the packing: with rank and bank
// swapped both orders are bijections on the collection MSHR's direct-mapped
// index, so every simulated statistic (TestGoldenStats included) comes out
// the same.
func TestKeyOfMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, cfg := range keyShapes() {
		m := newAddrMap(&cfg)
		for i := 0; i < 20000; i++ {
			a := rng.Uint64() >> uint(rng.Intn(40)) // long and short addresses alike
			l := m.decode(a)
			if got, want := m.rowKeyOf(a), m.rowKey(l); got != want {
				t.Fatalf("%s: rowKeyOf(%#x) = %#x, rowKey(decode) = %#x (%+v)", cfg.Name, a, got, want, l)
			}
			if got, want := m.rankKeyOf(a), m.rankKey(l); got != want {
				t.Fatalf("%s: rankKeyOf(%#x) = %#x, rankKey(decode) = %#x (%+v)", cfg.Name, a, got, want, l)
			}
			if got, want := m.bankIndex(l.Channel, l.Rank, l.Bank), (l.Channel*cfg.Ranks+l.Rank)*cfg.Banks+l.Bank; got != want {
				t.Fatalf("%s: bankIndex(%+v) = %d, want %d", cfg.Name, l, got, want)
			}
		}
	}

	directed := []struct {
		cfg             Config
		addr            uint64
		rowKey, rankKey uint64
		row             uint64
		rank, bank, ch  int
	}{
		{DDR4(4), 0x152db0e8, 0xa976, 0x2, 0x2a5, 2, 13, 0},
		{DDR4(8), 0x152db0e8, 0xa976, 0x2, 0x2a5, 2, 13, 0},
		{DDR4(16), 0xa96b0e8, 0x54b6, 0x2, 0x2a5, 2, 5, 0},
		{LPDDR4(), 0x2a5b0f8, 0x2a5b, 0x1, 0x2a5, 0, 5, 1},
		{GDDR5(), 0x54bb0f8, 0x54bb, 0x1, 0x2a5, 0, 13, 1},
		{HBM(), 0xa9763f8, 0x152ef, 0x7, 0x2a5, 0, 13, 7},
		{Enhanced(DDR4(4)), 0x152db0e8, 0xa976, 0x2, 0x2a5, 2, 13, 0},
		{Enhanced(HBM()), 0xa9763f8, 0x152ef, 0x7, 0x2a5, 0, 13, 7},
		{WithChannels(DDR4(16), 2, 2), 0xa9761e8, 0x54b7, 0x3, 0x2a5, 1, 5, 1},
		{WithChannels(HBM(), 4, 2), 0xa97b1f8, 0x152ef, 0x7, 0x2a5, 1, 13, 3},
	}
	for _, d := range directed {
		m := newAddrMap(&d.cfg)
		l := m.decode(d.addr)
		if l.Row != d.row || l.Rank != d.rank || l.Bank != d.bank || l.Channel != d.ch {
			t.Errorf("%s: decode(%#x) = %+v, want row %#x rank %d bank %d channel %d",
				d.cfg.Name, d.addr, l, d.row, d.rank, d.bank, d.ch)
		}
		if got := m.rowKeyOf(d.addr); got != d.rowKey {
			t.Errorf("%s: rowKeyOf(%#x) = %#x, want %#x", d.cfg.Name, d.addr, got, d.rowKey)
		}
		if got := m.rowKey(l); got != d.rowKey {
			t.Errorf("%s: rowKey(decode(%#x)) = %#x, want %#x", d.cfg.Name, d.addr, got, d.rowKey)
		}
		if got := m.rankKeyOf(d.addr); got != d.rankKey {
			t.Errorf("%s: rankKeyOf(%#x) = %#x, want %#x", d.cfg.Name, d.addr, got, d.rankKey)
		}
		if got := m.rankKey(l); got != d.rankKey {
			t.Errorf("%s: rankKey(decode(%#x)) = %#x, want %#x", d.cfg.Name, d.addr, got, d.rankKey)
		}
	}
}
