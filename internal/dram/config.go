// Package dram implements the off-chip memory substrate of the Piccolo
// reproduction: an event-driven DRAM timing simulator in the spirit of
// Ramulator [43] (bank/rank/channel state machines, FR-FCFS scheduling,
// open-row policy, command energies) extended with the Piccolo-FIM
// operations of §IV/§VI, a rank-level NMP gather model [37], and a
// near-bank PIM update model [62].
//
// The global clock is the accelerator clock at 1 GHz, so every timing
// parameter is expressed in integer nanoseconds (DESIGN.md §5).
package dram

import (
	"fmt"
	"strings"
)

// Kind enumerates the modeled memory device families (Fig. 15).
type Kind int

const (
	kindDDR4 Kind = iota
	kindLPDDR4
	kindGDDR5
	kindHBM
)

func (k Kind) String() string {
	switch k {
	case kindDDR4:
		return "DDR4"
	case kindLPDDR4:
		return "LPDDR4"
	case kindGDDR5:
		return "GDDR5"
	case kindHBM:
		return "HBM"
	}
	return "unknown"
}

// Timing holds DRAM timing parameters in controller cycles (1 cycle = 1 ns).
type Timing struct {
	TRCD uint64 // activate to column command
	TRP  uint64 // precharge period
	TRAS uint64 // activate to precharge
	TWR  uint64 // write recovery
	TRTP uint64 // read to precharge
	TCCD uint64 // effective column-to-column spacing (bank-group-aware controllers approach tCCD_S)
	TBL  uint64 // data burst duration on the bus
	TCL  uint64 // read column latency
	TCWL uint64 // write column latency
	TRRD uint64 // activate to activate, same rank
	TFAW uint64 // four-activate window, same rank
	TTRN uint64 // amortized bus turnaround penalty between read and write bursts (controllers batch write drains)
}

// Config describes one memory system configuration.
type Config struct {
	Name         string
	Kind         Kind
	Channels     int
	Ranks        int    // per channel
	Banks        int    // per rank
	RowBytes     uint64 // row size across the rank (all chips)
	BurstBytes   uint64 // bytes moved per data burst (64 DDR4, 32 others)
	ChipsPerRank int
	DeviceWidth  int // pins per chip: 4, 8, 16, 32
	Timing       Timing

	// Piccolo-FIM parameters (§IV-B, §VIII-B).
	FIMItems        int  // items (8B words) per scatter/gather operation
	FIMOffsetBits   int  // offset width written to the offset buffer
	FIMLongBurst    bool // enhanced design: offsets in one long burst
	FIMDataBursts   int  // data-buffer transfers per operation
	fimOffsetBursts int  // derived; see finalize
}

// finalize derives dependent fields and validates the configuration.
func (c *Config) finalize() error {
	if c.Channels <= 0 || c.Ranks <= 0 || c.Banks <= 0 {
		return fmt.Errorf("dram: channels/ranks/banks must be positive in %q", c.Name)
	}
	for _, v := range []int{c.Channels, c.Ranks, c.Banks, int(c.RowBytes), int(c.BurstBytes)} {
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: %q requires power-of-two geometry, got %d", c.Name, v)
		}
	}
	if c.FIMItems == 0 {
		c.FIMItems = int(c.BurstBytes / 8)
	}
	if c.FIMOffsetBits == 0 {
		c.FIMOffsetBits = 16
	}
	if c.FIMDataBursts == 0 {
		c.FIMDataBursts = (c.FIMItems*8 + int(c.BurstBytes) - 1) / int(c.BurstBytes)
	}
	c.fimOffsetBursts = c.offsetBursts()
	return nil
}

// offsetBursts computes the number of data-bus bursts needed to deliver the
// per-operation offsets. The offsets must be duplicated across every chip of
// the rank (§IV-B): FIMItems offsets × FIMOffsetBits per chip, and each
// chip receives DeviceWidth bits per beat with BurstBytes*8/totalWidth beats
// per burst.
func (c *Config) offsetBursts() int {
	if c.FIMLongBurst {
		return 1
	}
	totalWidthBits := c.ChipsPerRank * c.DeviceWidth
	if totalWidthBits == 0 {
		return 1
	}
	beatsPerBurst := int(c.BurstBytes) * 8 / totalWidthBits
	bitsPerChipPerBurst := c.DeviceWidth * beatsPerBurst
	offsetBitsPerChip := c.FIMItems * c.FIMOffsetBits
	n := (offsetBitsPerChip + bitsPerChipPerBurst - 1) / bitsPerChipPerBurst
	if n < 1 {
		n = 1
	}
	return n
}

// PeakBandwidthGBps returns the aggregate peak data-bus bandwidth.
func (c *Config) PeakBandwidthGBps() float64 {
	return float64(c.Channels) * float64(c.BurstBytes) / float64(c.Timing.TBL)
}

// ddr4Timing is DDR4-2400R (§VII-A): 8×tCCD ≈ 40 ns fits inside
// tWR+tRP+tRCD ≈ 43 ns, the window §VI relies on.
var ddr4Timing = Timing{
	TRCD: 14, TRP: 14, TRAS: 32, TWR: 15, TRTP: 8,
	TCCD: 5, TBL: 4, TCL: 14, TCWL: 11, TRRD: 5, TFAW: 21, TTRN: 1,
}

// DDR4 returns a DDR4-2400 configuration with the given device width
// (4, 8 or 16) — the paper's default is four-rank x16 on one channel.
func DDR4(width int) Config {
	cfg := Config{
		Name:       fmt.Sprintf("DDR4x%d", width),
		Kind:       kindDDR4,
		Channels:   1,
		Ranks:      4,
		RowBytes:   8 << 10,
		BurstBytes: 64,
		Timing:     ddr4Timing,
	}
	switch width {
	case 4:
		cfg.ChipsPerRank, cfg.DeviceWidth, cfg.Banks = 16, 4, 16
	case 8:
		cfg.ChipsPerRank, cfg.DeviceWidth, cfg.Banks = 8, 8, 16
	default:
		cfg.ChipsPerRank, cfg.DeviceWidth, cfg.Banks = 4, 16, 8
	}
	mustFinalize(&cfg)
	return cfg
}

// LPDDR4 returns an LPDDR4-3200 configuration (32B bursts, two channels).
func LPDDR4() Config {
	cfg := Config{
		Name:         "LPDDR4",
		Kind:         kindLPDDR4,
		Channels:     2,
		Ranks:        1,
		Banks:        8,
		RowBytes:     4 << 10,
		BurstBytes:   32,
		ChipsPerRank: 2,
		DeviceWidth:  16,
		Timing: Timing{
			TRCD: 18, TRP: 18, TRAS: 42, TWR: 18, TRTP: 8,
			TCCD: 5, TBL: 5, TCL: 20, TCWL: 10, TRRD: 10, TFAW: 40, TTRN: 2,
		},
	}
	mustFinalize(&cfg)
	return cfg
}

// GDDR5 returns a GDDR5-7000 configuration (32B bursts, two channels).
func GDDR5() Config {
	cfg := Config{
		Name:         "GDDR5",
		Kind:         kindGDDR5,
		Channels:     2,
		Ranks:        1,
		Banks:        16,
		RowBytes:     4 << 10,
		BurstBytes:   32,
		ChipsPerRank: 1,
		DeviceWidth:  32,
		Timing: Timing{
			TRCD: 14, TRP: 14, TRAS: 28, TWR: 15, TRTP: 5,
			TCCD: 2, TBL: 2, TCL: 14, TCWL: 6, TRRD: 6, TFAW: 23, TTRN: 1,
		},
	}
	mustFinalize(&cfg)
	return cfg
}

// HBM returns an HBM configuration (eight 128-bit channels, 32B bursts).
func HBM() Config {
	cfg := Config{
		Name:         "HBM",
		Kind:         kindHBM,
		Channels:     8,
		Ranks:        1,
		Banks:        16,
		RowBytes:     2 << 10,
		BurstBytes:   32,
		ChipsPerRank: 1,
		DeviceWidth:  128,
		Timing: Timing{
			TRCD: 14, TRP: 14, TRAS: 33, TWR: 16, TRTP: 6,
			TCCD: 2, TBL: 2, TCL: 14, TCWL: 7, TRRD: 4, TFAW: 16, TTRN: 1,
		},
	}
	mustFinalize(&cfg)
	return cfg
}

// Enhanced applies the §VIII-B design tweaks: narrow-offset encoding for
// small-width DDR4 devices (11-bit offsets suffice for ≤8KB rows) and
// long-burst offset delivery for 32B-burst memories.
func Enhanced(cfg Config) Config {
	out := cfg
	out.Name = cfg.Name + "-enh"
	switch cfg.Kind {
	case kindDDR4:
		out.FIMOffsetBits = 11
		out.FIMDataBursts = 0 // re-derive
		out.FIMItems = cfg.FIMItems
	default:
		// Longer bursts let one transaction carry all eight offsets and
		// widen the operation back to eight items per op.
		out.FIMLongBurst = true
		out.FIMItems = 8
		out.FIMDataBursts = 0 // re-derive: 64B over 32B bursts = 2
	}
	mustFinalize(&out)
	return out
}

// ByName resolves a memory preset by its Name, case-insensitively,
// including the "-enh" enhanced variants (used by cmd/piccolo-serve job
// requests and piccolo-sim -mem); "" selects the DDR4-2400 x16 paper
// default.
func ByName(name string) (Config, error) {
	base := strings.ToLower(name)
	enhanced := false
	if b, ok := strings.CutSuffix(base, "-enh"); ok && b != "" {
		base, enhanced = b, true
	}
	var cfg Config
	switch base {
	case "", "ddr4x16":
		cfg = DDR4(16)
	case "ddr4x8":
		cfg = DDR4(8)
	case "ddr4x4":
		cfg = DDR4(4)
	case "lpddr4":
		cfg = LPDDR4()
	case "gddr5":
		cfg = GDDR5()
	case "hbm":
		cfg = HBM()
	default:
		return Config{}, fmt.Errorf("dram: unknown memory preset %q", name)
	}
	if enhanced {
		cfg = Enhanced(cfg)
	}
	return cfg, nil
}

// WithChannels returns a copy of cfg with the given channel/rank counts
// (Fig. 16 sensitivity).
func WithChannels(cfg Config, channels, ranks int) Config {
	out := cfg
	out.Name = fmt.Sprintf("%s-ch%d-ra%d", cfg.Name, channels, ranks)
	out.Channels = channels
	out.Ranks = ranks
	mustFinalize(&out)
	return out
}

func mustFinalize(cfg *Config) {
	if err := cfg.finalize(); err != nil {
		panic(err)
	}
}
