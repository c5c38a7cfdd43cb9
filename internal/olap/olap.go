// Package olap is the in-memory-database substrate for the §VIII-A
// demonstration (Fig. 19b): OLAP-style select queries over a row-major
// columnar-scanned table, where reading one column is a fixed-stride walk —
// exactly the access pattern Piccolo-FIM accelerates. Queries Qa..Qd follow
// the RCNVMBench [91] select-statement family with varying filter and
// projection widths.
package olap

import (
	"fmt"

	"piccolo/internal/cache"
	"piccolo/internal/dram"
	"piccolo/internal/mshr"
	"piccolo/internal/sim"
)

// Table describes a row-major table of 8B fields.
type Table struct {
	Rows int
	Cols int
	Base uint64 // base byte address
}

// FieldAddr returns the byte address of (row, col).
func (t Table) FieldAddr(row, col int) uint64 {
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

// scanner is a minimal windowed access engine (the OLAP counterpart of the
// graph engine's random-access path).
type scanner struct {
	q           *sim.Queue
	mem         *dram.System
	cch         cache.Cache
	coll        *mshr.Collection
	conv        *mshr.Conventional
	window      int
	outstanding int
	t           uint64
	slots       int

	// Request completions, bound once so that a submit creates no closure.
	onGatherDone, onFillDone func(*dram.Request, uint64)
}

const scannerCacheBytes = 8 << 10

func newScanner(mode Mode, memCfg dram.Config, q *sim.Queue) (*scanner, error) {
	mem, err := dram.New(memCfg, q)
	if err != nil {
		return nil, err
	}
	s := &scanner{q: q, mem: mem, window: 1024}
	s.onGatherDone, s.onFillDone = s.gatherDone, s.fillDone
	if mode == Piccolo {
		s.cch, err = cache.NewPiccolo(scannerCacheBytes, cache.LRU)
		if err != nil {
			return nil, err
		}
		s.coll = mshr.NewCollection(64, mem.ItemsPerOp())
	} else {
		s.cch, err = cache.NewConventional(scannerCacheBytes, 8, cache.LRU)
		if err != nil {
			return nil, err
		}
		s.conv = mshr.NewConventional(64)
	}
	return s, nil
}

func (s *scanner) advance() {
	if s.q.RunNext() {
		if s.q.Now() > s.t {
			s.t = s.q.Now()
		}
		return
	}
	if s.coll != nil {
		if fl := s.coll.Drain(); len(fl) > 0 {
			s.submit(fl)
			return
		}
	}
	panic("olap: stalled with no pending memory work")
}

// gatherDone resumes the Tag accesses merged into a completed gather.
func (s *scanner) gatherDone(req *dram.Request, _ uint64) { s.outstanding -= int(req.Tag) }

// fillDone completes the conventional-MSHR fill of block Tag.
func (s *scanner) fillDone(req *dram.Request, _ uint64) { s.outstanding -= s.conv.Complete(req.Tag) }

func (s *scanner) submit(flushes []mshr.Flush) {
	for i := range flushes {
		fl := &flushes[i]
		s.q.RunUntil(s.t)
		req := s.mem.NewRequest()
		req.Addr, req.Items = fl.Addrs[0], fl.Items()
		if fl.Scatter {
			req.Kind, req.Class = dram.ReqScatter, dram.ClassWriteback
		} else {
			req.Kind, req.Class = dram.ReqGather, dram.ClassVTemp
			req.OnComplete, req.Tag = s.onGatherDone, uint64(fl.TotalSubs())
		}
		s.mem.Submit(req)
	}
}

// access performs one 8B field read through the configured path.
func (s *scanner) access(addr uint64) {
	s.slots++
	if s.slots >= 8 { // scan pipeline: 8 fields per cycle
		s.slots = 0
		s.t++
		s.q.RunUntil(s.t)
	}
	res := s.cch.Access(addr, false)
	if res.Hit {
		return
	}
	for s.outstanding >= s.window {
		s.advance()
	}
	s.q.RunUntil(s.t)
	for _, f := range res.Fetches {
		if f.Bytes == 8 {
			served, fl := s.coll.ReadMiss(f.Addr, s.mem.RowKeyOf(f.Addr))
			if served {
				continue
			}
			s.outstanding++
			s.submit(fl)
		} else {
			allocated, merged := s.conv.Register(f.Addr)
			for !allocated && !merged {
				s.advance()
				allocated, merged = s.conv.Register(f.Addr)
			}
			s.outstanding++
			if allocated {
				req := s.mem.NewRequest()
				req.Kind, req.Addr, req.Class = dram.ReqRead, f.Addr, dram.ClassVTemp
				req.OnComplete, req.Tag = s.onFillDone, f.Addr
				s.mem.Submit(req)
			}
		}
	}
}

func (s *scanner) finish() uint64 {
	if s.coll != nil {
		s.submit(s.coll.Drain())
	}
	for s.q.RunNext() {
	}
	if s.q.Now() > s.t {
		s.t = s.q.Now()
	}
	return s.t
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
	s, err := newScanner(mode, memCfg, queue)
	if err != nil {
		return nil, err
	}
	res := &Result{Query: q.Name, Mode: mode}
	for r := 0; r < tbl.Rows; r++ {
		for _, c := range q.FilterCols {
			a := tbl.FieldAddr(r, c)
			s.access(a)
			res.Checksum += a
		}
		if !selected(r, q.Selectivity) {
			continue
		}
		res.RowsOut++
		for _, c := range q.ProjectCols {
			a := tbl.FieldAddr(r, c)
			s.access(a)
			res.Checksum += a
		}
	}
	res.Cycles = s.finish()
	res.Mem = s.mem.Stats
	return res, nil
}
