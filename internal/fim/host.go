package fim

import (
	"encoding/binary"
	"fmt"
)

// Host is the memory-controller side of the emulation: it turns high-level
// operations (line read, scatter, and the tests' gather) into the standard
// DDR4 command sequences of §VI, with legal spacing computed by the
// emulator. It tracks which row the controller believes is open per bank.
type Host struct {
	E *Emulator
}

// NewHost wraps an emulator.
func NewHost(e *Emulator) *Host {
	return &Host{E: e}
}

// ensureOpen brings (bank,row) into the controller-visible open state,
// issuing PRE/ACT as needed.
func (h *Host) ensureOpen(bank int, row uint64) error {
	open, err := h.E.VisOpen(bank)
	if err != nil {
		return err
	}
	if open == int64(row) {
		return nil
	}
	if open >= 0 {
		if err := h.E.Precharge(bank); err != nil {
			return err
		}
	}
	return h.E.Activate(bank, row)
}

// ensureTarget makes row the physically latched row of the bank. Unlike
// ensureOpen it recognizes the state left by a previous FIM operation
// (virtual row visible, target row still latched) and skips the redundant
// precharge/activate pair — consecutive gathers to one row then cost only
// four commands each (Fig. 8c pipeline).
func (h *Host) ensureTarget(bank int, row uint64) error {
	phys, err := h.E.PhysOpen(bank)
	if err != nil {
		return err
	}
	open, err := h.E.VisOpen(bank)
	if err != nil {
		return err
	}
	if phys == int64(row) && (open == int64(row) || open >= int64(VirtRowY)) {
		return nil
	}
	return h.ensureOpen(bank, row)
}

// ReadLine reads one burst at (bank, row, col) with row management.
func (h *Host) ReadLine(bank int, row uint64, col int) ([]byte, error) {
	if err := h.ensureOpen(bank, row); err != nil {
		return nil, err
	}
	return h.E.Read(bank, col)
}

// encodeOffsets packs the item offsets into an offset-buffer burst.
func (h *Host) encodeOffsets(offsets []uint16) ([]byte, error) {
	if len(offsets) != h.E.Cfg.FIMItems {
		return nil, fmt.Errorf("fim: %d offsets, want %d", len(offsets), h.E.Cfg.FIMItems)
	}
	buf := make([]byte, h.E.Cfg.BurstSize)
	for i, o := range offsets {
		binary.LittleEndian.PutUint16(buf[2*i:], o)
	}
	return buf, nil
}

// otherVirtual alternates between the two virtual rows so that consecutive
// FIM operations trigger the PRE/ACT pair that conceals the internal
// operation (§VI, Fig. 8).
func otherVirtual(cur int64) uint64 {
	if cur == int64(VirtRowY) {
		return VirtRowZ
	}
	return VirtRowY
}

// issueOffsets starts a FIM operation on (bank, row): it latches the target
// row if needed, switches to a virtual row and writes the offset buffer
// there. It returns the virtual row it switched to.
func (h *Host) issueOffsets(bank int, row uint64, offsets []uint16) (uint64, error) {
	burst, err := h.encodeOffsets(offsets)
	if err != nil {
		return 0, err
	}
	if err := h.ensureTarget(bank, row); err != nil {
		return 0, err
	}
	open, _ := h.E.VisOpen(bank)
	vy := otherVirtual(open)
	if err := h.ensureOpen(bank, vy); err != nil {
		return 0, err
	}
	return vy, h.E.Write(bank, ColOffsetBuf, burst)
}

// Scatter executes the §VI scatter sequence: open the target row, write the
// offset buffer then the data buffer through a virtual row. A trailing
// virtual-row switch (PRE+ACT via a dummy offset write on the next
// operation, or an explicit drain here) guarantees the internal writes
// complete; Drain issues the dummy access the paper describes for idle
// periods.
func (h *Host) Scatter(bank int, row uint64, offsets []uint16, items []uint64) error {
	if len(items) != len(offsets) {
		return fmt.Errorf("fim: %d items for %d offsets", len(items), len(offsets))
	}
	if _, err := h.issueOffsets(bank, row, offsets); err != nil {
		return err
	}
	data := make([]byte, h.E.Cfg.BurstSize)
	for i, it := range items {
		binary.LittleEndian.PutUint64(data[8*i:], it)
	}
	return h.E.Write(bank, ColDataBuf, data)
}

// Drain issues the dummy write §VI prescribes "in cases where no command is
// scheduled for the internal buffer after the scatter operation", keeping
// the activation delay so pending internal writes land.
func (h *Host) Drain(bank int) error {
	open, err := h.E.VisOpen(bank)
	if err != nil {
		return err
	}
	if open < int64(VirtRowY) {
		return nil // no FIM operation in flight
	}
	vz := otherVirtual(open)
	if err := h.ensureOpen(bank, vz); err != nil {
		return err
	}
	// Reading the data buffer of the fresh virtual row provides the timed
	// access; its payload is ignored.
	_, err = h.E.Read(bank, ColDataBuf)
	return err
}
