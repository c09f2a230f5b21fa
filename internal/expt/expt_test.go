package expt

import (
	"context"
	"math"
	"strings"
	"testing"

	"virtualsync/internal/gen"
)

func TestRunFig1Ladder(t *testing.T) {
	f, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if f.Original != 21 {
		t.Errorf("original period = %g, want 21 (paper)", f.Original)
	}
	if !(f.Sized < f.Original) {
		t.Errorf("sizing did not improve: %g -> %g", f.Original, f.Sized)
	}
	if !(f.Retimed <= f.Sized) {
		t.Errorf("retiming regressed: %g -> %g", f.Sized, f.Retimed)
	}
	if !(f.VirtualSync < f.MarginedRetimed) {
		t.Errorf("VirtualSync %g did not beat the margined baseline %g", f.VirtualSync, f.MarginedRetimed)
	}
}

func TestRunFig2Shapes(t *testing.T) {
	pts := RunFig2()
	if len(pts) != fig2Samples {
		t.Fatalf("points = %d", len(pts))
	}
	// Buffer is linear; FF output constant within the window; latch
	// piecewise (flat then rising).
	sawFlat, sawRise := false, false
	for i := 1; i < len(pts); i++ {
		if pts[i].BufferOut-pts[i-1].BufferOut <= 0 {
			t.Fatal("buffer transfer not increasing")
		}
		if !math.IsNaN(pts[i].LatchOut) && !math.IsNaN(pts[i-1].LatchOut) {
			d := pts[i].LatchOut - pts[i-1].LatchOut
			if math.Abs(d) < 1e-9 {
				sawFlat = true
			}
			if d > 1e-9 {
				sawRise = true
			}
		}
		if !math.IsNaN(pts[i].FFOut) && !math.IsNaN(pts[i-1].FFOut) {
			if pts[i].FFOut != pts[i-1].FFOut {
				t.Fatal("FF transfer not constant within a window")
			}
		}
	}
	if !sawFlat || !sawRise {
		t.Fatalf("latch transfer not piecewise: flat=%v rise=%v", sawFlat, sawRise)
	}
	out := FormatFig2(pts)
	if !strings.Contains(out, "flip-flop") {
		t.Fatal("FormatFig2 output malformed")
	}
}

func TestRunCircuitSmallest(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-circuit flow skipped in -short mode")
	}
	spec, _ := gen.SpecByName("s5378")
	cfg := DefaultConfig()
	cfg.VerifyCycles = 32
	row, err := RunCircuit(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.NS < spec.TargetFFs || row.NG < spec.TargetGates {
		t.Errorf("row stats too small: %+v", row)
	}
	if row.NT < 0 {
		t.Errorf("negative period reduction %.2f", row.NT)
	}
	if row.Period > row.BaselinePeriod {
		t.Errorf("period regressed")
	}
	if row.EquivChecked && !row.EquivOK {
		t.Errorf("functional equivalence failed: %d mismatches", row.Mismatches)
	}
	if row.UnitsAfterReplace < row.UnitsBeforeReplace {
		t.Errorf("buffer replacement lost units: %d -> %d", row.UnitsBeforeReplace, row.UnitsAfterReplace)
	}
	table := FormatTable1([]*CircuitResult{row})
	if !strings.Contains(table, "s5378") {
		t.Fatal("FormatTable1 output malformed")
	}
	for _, f := range []string{FormatFig6([]*CircuitResult{row}), FormatFig7([]*CircuitResult{row}), FormatFig8([]*CircuitResult{row})} {
		if !strings.Contains(f, "s5378") {
			t.Fatal("figure output malformed")
		}
	}
}

func TestRunSuiteUnknownName(t *testing.T) {
	if _, err := RunSuite(context.Background(), []string{"nope"}, DefaultConfig()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFormatFig1(t *testing.T) {
	s := FormatFig1(&Fig1Result{Original: 21, Sized: 16, Retimed: 11, VirtualSync: 8.5, MarginedRetimed: 12.1})
	for _, want := range []string{"21.00", "16.00", "11.00", "8.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("FormatFig1 missing %s:\n%s", want, s)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []*CircuitResult{{
		Name: "x", NS: 1, NG: 2, NT: 3.5, EquivChecked: true, EquivOK: true,
	}}
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "circuit,ns,ng") || !strings.Contains(out, "x,1,2") {
		t.Fatalf("csv malformed:\n%s", out)
	}
}
