// Package fim is the validation platform of the reproduction: a
// DRAM-command-level functional emulator standing in for the paper's FPGA
// platform (AMD ALVEO U280 with PiDRAM/PiMulator-style infrastructure,
// §VII-A/B). It executes *standard DDR4 command sequences* — ACT, PRE, RD,
// WR — against in-memory bank arrays, implements the two virtual rows per
// bank of §VI (offset buffer + data buffer with command translation), and
// checks both data correctness and timing legality, including the
// 8×tCCD_L ≤ tWR+tRP+tRCD window the Piccolo commands hide behind.
package fim

import (
	"encoding/binary"
	"fmt"
)

// VirtRowY and VirtRowZ are the per-bank virtual row addresses of §VI. Any
// command addressed to them is interpreted by the bank's internal
// controller instead of the cell array.
const (
	VirtRowY uint64 = 1 << 40
	VirtRowZ uint64 = VirtRowY + 1
)

// Virtual-row column map: column 0 is the offset buffer, column 1 the data
// buffer ("A virtual row has two regions, which are mapped to the data
// buffer and offset buffer within the bank").
const (
	ColOffsetBuf = 0
	ColDataBuf   = 1
)

// Config holds the emulated device geometry and DDR4 timing in device
// clocks (nCK). Defaults follow §VII-A: tCCD_L=6, tCCD_S=4, tRAS=39,
// tBURST=4 nCK on a 16-bank device with 8KB rows.
type Config struct {
	Banks     int
	RowBytes  int
	BurstSize int // bytes per RD/WR burst
	FIMItems  int // 8B words per gather/scatter

	TRCD, TRP, TRAS, TWR uint64
	TCL, TCWL            uint64
	TCCDL, TBURST, TRTP  uint64
}

// DefaultConfig returns the §VII-A FPGA-emulation parameters (DDR4-2400:
// tWR+tRP+tRCD = 50 nCK ≈ 41.6 ns just covers 8×tCCD_L = 48 nCK ≈ 40 ns).
func DefaultConfig() Config {
	return Config{
		Banks:     16,
		RowBytes:  8 << 10,
		BurstSize: 64,
		FIMItems:  8,
		TRCD:      16, TRP: 16, TRAS: 39, TWR: 18,
		TCL: 16, TCWL: 12,
		TCCDL: 6, TBURST: 4, TRTP: 10,
	}
}

// Stats counts emulated commands and translations.
type Stats struct {
	NACT, NPRE, NRD, NWR   uint64
	SuppressedPRE          uint64 // precharges cancelled by a virtual ACT
	VirtualACT             uint64 // activations translated to no-ops
	NGather, NScatter      uint64
	DataBusBusy, CmdIssued uint64
}

type ebank struct {
	rows map[uint64][]byte

	physOpen int64 // row latched in the sense amps (-1 closed)
	visOpen  int64 // row the memory controller believes is open
	// pendingPre defers the physical precharge until the following ACT
	// reveals whether the controller is switching to a virtual row (§VI:
	// "those commands are translated to a no-op by the internal
	// controller").
	pendingPre bool

	actReadyAt uint64 // earliest next ACT (controller view)
	colReadyAt uint64 // earliest next RD/WR
	preReadyAt uint64 // earliest next PRE
	busyUntil  uint64 // internal gather/scatter completion

	offsetBuf []uint16
	dataBuf   []byte
}

// Emulator executes one bank group's command stream with a shared command
// bus (one command per nCK) and a shared data bus.
type Emulator struct {
	Cfg   Config
	Stats Stats

	clock       uint64
	dataBusFree uint64
	banks       []*ebank
}

// New constructs an emulator.
func New(cfg Config) *Emulator {
	e := &Emulator{Cfg: cfg}
	e.banks = make([]*ebank, cfg.Banks)
	for i := range e.banks {
		e.banks[i] = &ebank{
			rows:     make(map[uint64][]byte),
			physOpen: -1,
			visOpen:  -1,
			dataBuf:  make([]byte, cfg.BurstSize),
		}
	}
	return e
}

// Clock returns the current emulated device cycle.
func (e *Emulator) Clock() uint64 { return e.clock }

// LoadRow installs backing data for (bank, row); the slice is copied and
// padded/truncated to the row size.
func (e *Emulator) LoadRow(bank int, row uint64, data []byte) error {
	b, err := e.bank(bank)
	if err != nil {
		return err
	}
	if row >= VirtRowY {
		return fmt.Errorf("fim: cannot load virtual row %d", row)
	}
	buf := make([]byte, e.Cfg.RowBytes)
	copy(buf, data)
	b.rows[row] = buf
	return nil
}

func (e *Emulator) bank(i int) (*ebank, error) {
	if i < 0 || i >= len(e.banks) {
		return nil, fmt.Errorf("fim: bank %d out of range", i)
	}
	return e.banks[i], nil
}

func (e *Emulator) issue(earliest uint64) uint64 {
	// Command bus: one command per cycle, program order.
	at := e.clock + 1
	if earliest > at {
		at = earliest
	}
	e.clock = at
	e.Stats.CmdIssued++
	return at
}

func (b *ebank) row(row uint64, rowBytes int) []byte {
	if r, ok := b.rows[row]; ok {
		return r
	}
	r := make([]byte, rowBytes)
	b.rows[row] = r
	return r
}

// Activate issues ACT (bank, row). Virtual-row activations are translated
// to no-ops but obey controller-view timing.
func (e *Emulator) Activate(bank int, row uint64) error {
	b, err := e.bank(bank)
	if err != nil {
		return err
	}
	if b.visOpen >= 0 {
		return fmt.Errorf("fim: ACT bank %d row %d while row %d open (missing PRE)", bank, row, b.visOpen)
	}
	at := e.issue(b.actReadyAt)
	e.Stats.NACT++
	b.visOpen = int64(row)
	b.colReadyAt = at + e.Cfg.TRCD
	b.preReadyAt = at + e.Cfg.TRAS
	if row >= VirtRowY {
		// Translated to a no-op: the pending precharge (if any) is
		// cancelled so the physical target row stays latched.
		e.Stats.VirtualACT++
		if b.pendingPre {
			e.Stats.SuppressedPRE++
			b.pendingPre = false
		}
		return nil
	}
	if b.pendingPre {
		if at < b.busyUntil {
			return fmt.Errorf("fim: physical ACT at %d would destroy in-flight internal op (busy until %d)", at, b.busyUntil)
		}
		b.pendingPre = false
		b.physOpen = -1
	}
	if b.physOpen >= 0 {
		return fmt.Errorf("fim: physical ACT bank %d row %d while row %d latched", bank, row, b.physOpen)
	}
	b.physOpen = int64(row)
	return nil
}

// VisOpen reports the row the memory controller believes is open in the
// bank (-1 when closed); virtual rows appear here like any other row.
func (e *Emulator) VisOpen(bank int) (int64, error) {
	b, err := e.bank(bank)
	if err != nil {
		return 0, err
	}
	return b.visOpen, nil
}

// PhysOpen reports the physically latched row of a bank (-1 when closed);
// the host controller mirrors this state to skip redundant re-activations
// between consecutive FIM operations on the same target row.
func (e *Emulator) PhysOpen(bank int) (int64, error) {
	b, err := e.bank(bank)
	if err != nil {
		return 0, err
	}
	return b.physOpen, nil
}

// Precharge issues PRE (bank). The physical precharge is deferred until the
// next ACT reveals whether it targets a virtual row.
func (e *Emulator) Precharge(bank int) error {
	b, err := e.bank(bank)
	if err != nil {
		return err
	}
	if b.visOpen < 0 {
		return fmt.Errorf("fim: PRE bank %d while closed", bank)
	}
	at := e.issue(b.preReadyAt)
	e.Stats.NPRE++
	b.visOpen = -1
	b.actReadyAt = at + e.Cfg.TRP
	b.pendingPre = b.physOpen >= 0
	return nil
}

// Read issues RD (bank, col) against the controller-visible open row and
// returns the burst. Reads of the virtual data buffer return gathered data
// and fail if the internal operation could not have finished (§VI window
// violation).
func (e *Emulator) Read(bank int, col int) ([]byte, error) {
	b, err := e.bank(bank)
	if err != nil {
		return nil, err
	}
	if b.visOpen < 0 {
		return nil, fmt.Errorf("fim: RD bank %d while closed", bank)
	}
	at := e.issue(max(b.colReadyAt, subClamp(e.dataBusFree, e.Cfg.TCL)))
	dataAt := at + e.Cfg.TCL
	e.dataBusFree = dataAt + e.Cfg.TBURST
	e.Stats.DataBusBusy += e.Cfg.TBURST
	e.Stats.NRD++
	b.colReadyAt = at + e.Cfg.TCCDL
	b.preReadyAt = max(b.preReadyAt, at+e.Cfg.TRTP)

	if uint64(b.visOpen) >= VirtRowY {
		if col != ColDataBuf {
			return nil, fmt.Errorf("fim: RD virtual row column %d is not the data buffer", col)
		}
		if dataAt < b.busyUntil {
			return nil, fmt.Errorf("fim: data buffer read at %d before internal op completes at %d (window violated)", dataAt, b.busyUntil)
		}
		out := make([]byte, len(b.dataBuf))
		copy(out, b.dataBuf)
		return out, nil
	}
	off := col * e.Cfg.BurstSize
	if off+e.Cfg.BurstSize > e.Cfg.RowBytes {
		return nil, fmt.Errorf("fim: RD column %d beyond row", col)
	}
	row := b.row(uint64(b.visOpen), e.Cfg.RowBytes)
	out := make([]byte, e.Cfg.BurstSize)
	copy(out, row[off:])
	return out, nil
}

// Write issues WR (bank, col, data). Writes to the virtual offset buffer
// latch offsets and trigger the internal gather; writes to the virtual data
// buffer trigger the internal scatter using the latched offsets.
func (e *Emulator) Write(bank int, col int, data []byte) error {
	b, err := e.bank(bank)
	if err != nil {
		return err
	}
	if b.visOpen < 0 {
		return fmt.Errorf("fim: WR bank %d while closed", bank)
	}
	if len(data) != e.Cfg.BurstSize {
		return fmt.Errorf("fim: WR burst of %d bytes, want %d", len(data), e.Cfg.BurstSize)
	}
	at := e.issue(max(b.colReadyAt, subClamp(e.dataBusFree, e.Cfg.TCWL)))
	dataEnd := at + e.Cfg.TCWL + e.Cfg.TBURST
	e.dataBusFree = dataEnd
	e.Stats.DataBusBusy += e.Cfg.TBURST
	e.Stats.NWR++
	b.colReadyAt = at + e.Cfg.TCCDL
	b.preReadyAt = max(b.preReadyAt, dataEnd+e.Cfg.TWR)

	if uint64(b.visOpen) >= VirtRowY {
		switch col {
		case ColOffsetBuf:
			return e.writeOffsets(b, data, dataEnd)
		case ColDataBuf:
			return e.scatter(b, data, dataEnd)
		default:
			return fmt.Errorf("fim: WR virtual row column %d unmapped", col)
		}
	}
	off := col * e.Cfg.BurstSize
	if off+e.Cfg.BurstSize > e.Cfg.RowBytes {
		return fmt.Errorf("fim: WR column %d beyond row", col)
	}
	row := b.row(uint64(b.visOpen), e.Cfg.RowBytes)
	copy(row[off:], data)
	return nil
}

// writeOffsets latches the offset buffer and starts the internal gather
// ("this automatically triggers the internal gather operation").
func (e *Emulator) writeOffsets(b *ebank, data []byte, dataEnd uint64) error {
	if b.physOpen < 0 {
		return fmt.Errorf("fim: gather with no activated target row")
	}
	n := e.Cfg.FIMItems
	offs := make([]uint16, n)
	for i := 0; i < n; i++ {
		offs[i] = binary.LittleEndian.Uint16(data[2*i:])
	}
	for _, o := range offs {
		if int(o)+8 > e.Cfg.RowBytes {
			return fmt.Errorf("fim: offset %d beyond row", o)
		}
		if o%8 != 0 {
			return fmt.Errorf("fim: offset %d not 8B aligned", o)
		}
	}
	b.offsetBuf = offs
	row := b.row(uint64(b.physOpen), e.Cfg.RowBytes)
	for i, o := range offs {
		copy(b.dataBuf[8*i:8*i+8], row[o:o+8])
	}
	b.busyUntil = dataEnd + uint64(n)*e.Cfg.TCCDL
	e.Stats.NGather++
	return nil
}

// scatter writes the data-buffer burst into the open row at the latched
// offsets.
func (e *Emulator) scatter(b *ebank, data []byte, dataEnd uint64) error {
	if b.physOpen < 0 {
		return fmt.Errorf("fim: scatter with no activated target row")
	}
	if b.offsetBuf == nil {
		return fmt.Errorf("fim: scatter before offsets were written")
	}
	copy(b.dataBuf, data)
	row := b.row(uint64(b.physOpen), e.Cfg.RowBytes)
	for i, o := range b.offsetBuf {
		copy(row[o:o+8], b.dataBuf[8*i:8*i+8])
	}
	b.busyUntil = dataEnd + uint64(len(b.offsetBuf))*e.Cfg.TCCDL
	e.Stats.NScatter++
	return nil
}

func subClamp(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
