package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{4}, 4},
		{nil, 0},
		{[]float64{0, 2, 8}, 4}, // non-positive skipped
		{[]float64{-1}, 0},
	}
	for _, c := range cases {
		got := Geomean(c.in)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r) + 1
			xs = append(xs, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return Geomean(xs) == 0
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(6, 0); got != 0 {
		t.Errorf("Ratio/0 = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "name", "value")
	tb.AddRow("alpha", F2(1.5))
	tb.AddRow("beta", Pct(0.125))
	tb.AddNote("scaled by %d", 4)
	out := tb.String()
	for _, want := range []string{"Fig. X", "alpha", "1.50", "12.5%", "scaled by 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	md := tb.Markdown()
	for _, want := range []string{"### Fig. X", "| name | value |", "| alpha | 1.50 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown output missing %q:\n%s", want, md)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := F(0); got != "0" {
		t.Errorf("F(0) = %q", got)
	}
	if got := F(12345); got != "12345" {
		t.Errorf("F(12345) = %q", got)
	}
	if got := F(12.34); got != "12.3" {
		t.Errorf("F(12.34) = %q", got)
	}
	if got := F(1.23456); got != "1.235" {
		t.Errorf("F(1.23456) = %q", got)
	}
	if got := I(42); got != "42" {
		t.Errorf("I(42) = %q", got)
	}
}
