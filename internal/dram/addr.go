package dram

import "math/bits"

// Loc is the decomposition of a physical byte address into the DRAM
// hierarchy. Col is the burst index inside the row; ByteInRow is the byte
// offset of the address within the row's footprint (the value a FIM offset
// encodes, §IV-B).
type Loc struct {
	Channel, Rank, Bank int
	Row                 uint64
	Col                 uint64
	ByteInRow           uint64
}

// addrMap extracts hierarchy fields from byte addresses using the
// row:rank:bank:column:channel:offset ordering — bursts interleave across
// channels, a row's bursts are contiguous per channel (good for streams),
// and any 8B word maps to a single (channel,rank,bank,row), which is what
// the collection-extended MSHR groups by. Every field is a shift and a
// mask fixed when the map is built, so an address costs no loop-carried
// shifting and the collection keys need no Loc.
type addrMap struct {
	chBits, bankBits, rankBits uint

	// Shift of each field's lowest bit (the channel's is the burst width).
	chShift, colShift, bankShift, rankShift, rowShift uint
	// Field masks, applied after the shift.
	burstMask, chMask, colMask, bankMask, rankMask uint64
}

func newAddrMap(cfg *Config) *addrMap {
	burstBits := uint(bits.TrailingZeros64(cfg.BurstBytes))
	colBits := uint(bits.TrailingZeros64(cfg.RowBytes / cfg.BurstBytes))
	m := &addrMap{
		chBits:   uint(bits.TrailingZeros64(uint64(cfg.Channels))),
		bankBits: uint(bits.TrailingZeros64(uint64(cfg.Banks))),
		rankBits: uint(bits.TrailingZeros64(uint64(cfg.Ranks))),
	}
	m.chShift = burstBits
	m.colShift = m.chShift + m.chBits
	m.bankShift = m.colShift + colBits
	m.rankShift = m.bankShift + m.bankBits
	m.rowShift = m.rankShift + m.rankBits
	m.burstMask = 1<<burstBits - 1
	m.chMask = 1<<m.chBits - 1
	m.colMask = 1<<colBits - 1
	m.bankMask = 1<<m.bankBits - 1
	m.rankMask = 1<<m.rankBits - 1
	return m
}

// decode splits a byte address into its location, writing l field by
// field: a Loc built on the stack and copied into a request stalls the
// copy's wide loads on the narrow stores that built it.
func (m *addrMap) decode(addr uint64, l *Loc) {
	col := addr >> m.colShift & m.colMask
	l.Channel = int(addr >> m.chShift & m.chMask)
	l.Rank = int(addr >> m.rankShift & m.rankMask)
	l.Bank = int(addr >> m.bankShift & m.bankMask)
	l.Row = addr >> m.rowShift
	l.Col = col
	l.ByteInRow = col<<m.chShift | addr&m.burstMask
}

// rowKeyOf packs addr's (row, bank, rank, channel), most significant first,
// into one comparable word: the grouping key for FIM collection. The order
// is part of the model — the collection MSHR is direct-mapped on the key's
// low bits, so which of rank and bank sits lower decides which rows share
// an entry and the order a drain dispatches them in — and it is not the
// address's own order (row:rank:bank), so the fields are re-packed one by
// one rather than shifted out together. TestKeyOfMatchesDecode pins it.
func (m *addrMap) rowKeyOf(addr uint64) uint64 {
	key := addr >> m.rowShift
	key = key<<m.bankBits | addr>>m.bankShift&m.bankMask
	key = key<<m.rankBits | addr>>m.rankShift&m.rankMask
	key = key<<m.chBits | addr>>m.chShift&m.chMask
	return key
}

// rankKeyOf packs addr's (rank, channel), the grouping key for NMP
// collection.
func (m *addrMap) rankKeyOf(addr uint64) uint64 {
	return (addr>>m.rankShift&m.rankMask)<<m.chBits | addr>>m.chShift&m.chMask
}

// bankIndex is the position of a location's bank in System.banks, which
// lists the banks channel-major, then rank, then bank.
func (m *addrMap) bankIndex(ch, rank, bank int) int {
	return (ch<<m.rankBits|rank)<<m.bankBits | bank
}
