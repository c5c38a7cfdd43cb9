// Package olap is the in-memory-database substrate for the §VIII-A
// demonstration (Fig. 19b): OLAP-style select queries over a row-major
// columnar-scanned table, where reading one column is a fixed-stride walk —
// exactly the access pattern Piccolo-FIM accelerates. Queries Qa..Qd follow
// the RCNVMBench [91] select-statement family with varying filter and
// projection widths.
package olap

import (
	"fmt"

	"piccolo/internal/accel"
	"piccolo/internal/dram"
	"piccolo/internal/sim"
)

// Table describes a row-major table of 8B fields.
type Table struct {
	Rows int
	Cols int
	Base uint64 // base byte address
}

// fieldAddr returns the byte address of (row, col).
func (t Table) fieldAddr(row, col int) uint64 {
	return t.Base + uint64(row*t.Cols+col)*8
}

// Query is a select statement: scan the filter columns, and for selected
// rows read the projected columns.
type Query struct {
	Name        string
	FilterCols  []int
	ProjectCols []int
	Selectivity float64 // fraction of rows selected
}

// Queries returns the four Fig. 19b query shapes.
func Queries() []Query {
	return []Query{
		{Name: "Qa", FilterCols: []int{0}, ProjectCols: []int{3}, Selectivity: 0.10},
		{Name: "Qb", FilterCols: []int{0}, ProjectCols: []int{2, 5}, Selectivity: 0.05},
		{Name: "Qc", FilterCols: []int{1}, ProjectCols: nil, Selectivity: 1.00}, // single-column aggregate
		{Name: "Qd", FilterCols: []int{0, 8}, ProjectCols: []int{3}, Selectivity: 0.02},
	}
}

// selected is a deterministic pseudo-random row predicate (splitmix64).
func selected(row int, selectivity float64) bool {
	x := uint64(row) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1000000) < selectivity*1000000
}

// Mode selects the memory path of the scan engine.
type Mode int

const (
	// Conventional: 64B cache, burst fills.
	Conventional Mode = iota
	// Piccolo: Piccolo-cache + collection-extended MSHR + FIM gathers.
	Piccolo
)

func (m Mode) String() string {
	if m == Piccolo {
		return "Piccolo"
	}
	return "Conventional"
}

// Result reports one query execution.
type Result struct {
	Query    string
	Mode     Mode
	Cycles   uint64
	RowsOut  int
	Checksum uint64
	Mem      dram.Stats
}

// Run executes the query against the table under the given mode and memory
// configuration. The checksum is computed functionally (field value =
// address) so both modes can be cross-checked.
func Run(q Query, tbl Table, mode Mode, memCfg dram.Config) (*Result, error) {
	if tbl.Cols < 8 {
		return nil, fmt.Errorf("olap: table needs ≥ 8 columns for the Fig. 19b stride regime, got %d", tbl.Cols)
	}
	for _, c := range append(append([]int{}, q.FilterCols...), q.ProjectCols...) {
		if c < 0 || c >= tbl.Cols {
			return nil, fmt.Errorf("olap: query %s references column %d of %d", q.Name, c, tbl.Cols)
		}
	}
	queue := &sim.Queue{}
	mem, err := dram.New(memCfg, queue)
	if err != nil {
		return nil, err
	}
	// The graph engine's updater path with an 8KB on-chip cache and a
	// 1024-access window.
	sys := accel.GraphDynsCache
	if mode == Piccolo {
		sys = accel.Piccolo
	}
	mp, err := accel.NewMemPath(accel.Config{System: sys, Window: 1024, OnChipBytes: 8 << 10, CacheWays: 8,
		CollectionEntries: 64, ConvMSHREntries: 64}, mem, queue)
	if err != nil {
		return nil, err
	}
	res := &Result{Query: q.Name, Mode: mode}
	slots := 0
	read := func(a uint64) {
		slots++
		if slots == 8 { // scan pipeline: 8 fields per cycle
			slots = 0
			mp.Tick()
		}
		mp.Access(a, false, dram.ClassVTemp)
		res.Checksum += a
	}
	for r := 0; r < tbl.Rows; r++ {
		for _, c := range q.FilterCols {
			read(tbl.fieldAddr(r, c))
		}
		if !selected(r, q.Selectivity) {
			continue
		}
		res.RowsOut++
		for _, c := range q.ProjectCols {
			read(tbl.fieldAddr(r, c))
		}
	}
	res.Cycles = mp.Finish()
	res.Mem = mem.Stats
	return res, nil
}
