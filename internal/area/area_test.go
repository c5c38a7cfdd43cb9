package area

import (
	"math"
	"testing"
)

func TestAcceleratorOverheadMatchesPaper(t *testing.T) {
	conv, pic, frac := AcceleratorOverhead()
	// §VII-F: 6.34 mm² conventional, 6.60 mm² Piccolo, +4.10%.
	if math.Abs(conv-6.34) > 0.02 {
		t.Errorf("conventional area %.2f, paper 6.34", conv)
	}
	if math.Abs(pic-6.60) > 0.02 {
		t.Errorf("piccolo area %.2f, paper 6.60", pic)
	}
	if math.Abs(frac-0.0410) > 0.002 {
		t.Errorf("overhead %.4f, paper 0.0410", frac)
	}
}

func TestBreakdownComponentsNamed(t *testing.T) {
	conv, pic := AcceleratorBreakdown()
	for _, cs := range [][]Component{conv, pic} {
		for _, c := range cs {
			if c.Name == "" || c.MM2 <= 0 {
				t.Errorf("bad component %+v", c)
			}
		}
	}
	if total(conv) >= total(pic) {
		t.Error("piccolo not larger than conventional")
	}
}

func TestDRAMOverheadMatchesPaper(t *testing.T) {
	d := PaperDRAMOverhead()
	if got := d.ControllerTransistors(); got != 126 {
		t.Errorf("controller transistors = %d, paper 126", got)
	}
	if ref := d.CSLDriverTransistors + d.ColDecoderTransistors; ref != 6400 {
		t.Errorf("reference transistors = %d, paper 4096+2304", ref)
	}
	if got := d.TotalDiePct(); math.Abs(got-4.36) > 0.01 {
		t.Errorf("total die overhead %.2f%%, paper 4.36%%", got)
	}
}
