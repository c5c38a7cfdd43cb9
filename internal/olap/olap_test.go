package olap

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"piccolo/internal/dram"
)

func testTable() Table {
	return Table{Rows: 4096, Cols: 16, Base: 0}
}

func TestQueriesWellFormed(t *testing.T) {
	qs := Queries()
	if len(qs) != 4 {
		t.Fatalf("queries = %d, want 4 (Qa..Qd)", len(qs))
	}
	for _, q := range qs {
		if q.Name == "" || len(q.FilterCols) == 0 {
			t.Errorf("malformed query %+v", q)
		}
		if q.Selectivity <= 0 || q.Selectivity > 1 {
			t.Errorf("%s selectivity %v", q.Name, q.Selectivity)
		}
	}
}

func TestSelectedDeterministicAndCalibrated(t *testing.T) {
	n, hits := 100000, 0
	for r := 0; r < n; r++ {
		if selected(r, 0.1) {
			hits++
		}
		if selected(r, 0.1) != selected(r, 0.1) {
			t.Fatal("selected not deterministic")
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.09 || frac > 0.11 {
		t.Errorf("selectivity 0.1 realized as %.3f", frac)
	}
	if !selected(5, 1.0) {
		t.Error("selectivity 1.0 must select everything")
	}
}

func TestFieldAddr(t *testing.T) {
	tbl := Table{Rows: 10, Cols: 4, Base: 1 << 20}
	if got := tbl.fieldAddr(0, 0); got != 1<<20 {
		t.Errorf("addr(0,0) = %d", got)
	}
	if got := tbl.fieldAddr(2, 3); got != 1<<20+(2*4+3)*8 {
		t.Errorf("addr(2,3) = %d", got)
	}
}

func TestBothModesSameResultRows(t *testing.T) {
	tbl := testTable()
	for _, q := range Queries() {
		conv, err := Run(q, tbl, Conventional, dram.DDR4(16))
		if err != nil {
			t.Fatal(err)
		}
		pic, err := Run(q, tbl, Piccolo, dram.DDR4(16))
		if err != nil {
			t.Fatal(err)
		}
		if conv.RowsOut != pic.RowsOut || conv.Checksum != pic.Checksum {
			t.Errorf("%s: functional divergence: %d/%d rows, %#x/%#x checksums",
				q.Name, conv.RowsOut, pic.RowsOut, conv.Checksum, pic.Checksum)
		}
	}
}

func TestPiccoloAcceleratesScans(t *testing.T) {
	// §VIII-A: "Piccolo-FIM can achieve about 3.8× speedup for OLAP
	// queries" — we require a clear win on every query.
	tbl := testTable()
	for _, q := range Queries() {
		conv, err := Run(q, tbl, Conventional, dram.DDR4(16))
		if err != nil {
			t.Fatal(err)
		}
		pic, err := Run(q, tbl, Piccolo, dram.DDR4(16))
		if err != nil {
			t.Fatal(err)
		}
		speedup := float64(conv.Cycles) / float64(pic.Cycles)
		if speedup < 1.5 {
			t.Errorf("%s: speedup %.2f, want > 1.5", q.Name, speedup)
		}
		if pic.Mem.TotalTxns() >= conv.Mem.TotalTxns() {
			t.Errorf("%s: piccolo txns %d not below conventional %d",
				q.Name, pic.Mem.TotalTxns(), conv.Mem.TotalTxns())
		}
	}
}

// goldenOLAPDigest pins every simulated number Fig. 19b reports: a change
// to the memory path that moves any of them fails here. Update it only
// when a modelling change is intended.
const goldenOLAPDigest = "c2a08cdf954faa8af8a01529ae4f8173b31be05e7a10f1b7281cc58a9b567e3d"

func TestGoldenOLAP(t *testing.T) {
	h := sha256.New()
	for _, rows := range []int{2048, 4096, 8192} {
		tbl := Table{Rows: rows, Cols: 16}
		for _, q := range Queries() {
			for _, mode := range []Mode{Conventional, Piccolo} {
				r, err := Run(q, tbl, mode, dram.DDR4(16))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d|%s|%v|%d|%d|%d|%+v|", rows, r.Query, r.Mode, r.Cycles, r.RowsOut, r.Checksum, r.Mem)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenOLAPDigest {
		t.Errorf("simulated OLAP statistics changed: digest %s, golden %s", got, goldenOLAPDigest)
	}
}

// TestLineFillBursts checks that a 64B line fill costs two bursts on a
// 32B-burst memory, as it does in the graph engine.
func TestLineFillBursts(t *testing.T) {
	for _, q := range Queries() {
		ddr, err := Run(q, testTable(), Conventional, dram.DDR4(16))
		if err != nil {
			t.Fatal(err)
		}
		hbm, err := Run(q, testTable(), Conventional, dram.HBM())
		if err != nil {
			t.Fatal(err)
		}
		if hbm.Mem.ReadTxns != 2*ddr.Mem.ReadTxns {
			t.Errorf("%s: %d read bursts on HBM, want 2 × %d (DDR4)", q.Name, hbm.Mem.ReadTxns, ddr.Mem.ReadTxns)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Queries()[0], Table{Rows: 10, Cols: 4}, Piccolo, dram.DDR4(16)); err == nil {
		t.Error("narrow table accepted")
	}
	bad := Query{Name: "Qx", FilterCols: []int{99}, Selectivity: 0.5}
	if _, err := Run(bad, testTable(), Piccolo, dram.DDR4(16)); err == nil {
		t.Error("out-of-range column accepted")
	}
}
