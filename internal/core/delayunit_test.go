package core

import (
	"math"
	"testing"
	"testing/quick"

	"virtualsync/internal/celllib"
)

// unitSeq is the timing of paper Fig. 2's flip-flop and latch, both at
// T = 10 and phase 0 unless a test shifts them.
var unitSeq = celllib.SeqTiming{Tcq: 3, Tdq: 1, Tsu: 1, Th: 1}

// unitOut is UnitOut for a unit of kind at T = 10 and phase shift phi.
func unitOut(kind UnitKind, phi float64) func(float64) (float64, int, bool) {
	return func(in float64) (float64, int, bool) { return UnitOut(kind, unitSeq, 10, phi, in) }
}

// TestBufferOutLinear: a buffer of delay 2 followed by no unit preserves
// the arrival shift exactly (Fig. 2(a)).
func TestBufferOutLinear(t *testing.T) {
	none := unitOut(UnitNone, 0)
	for _, in := range []float64{-5, 0, 3.7, 12} {
		if got, _, ok := none(in + 2); !ok || got != in+2 {
			t.Errorf("buffer then no unit at %g = %g,%v", in, got, ok)
		}
	}
}

func TestFFOutWindows(t *testing.T) {
	ff := unitOut(UnitFF, 0)
	// Window 0: [1, 9] -> out 13.
	for _, in := range []float64{1, 5, 9} {
		out, n, ok := ff(in)
		if !ok || n != 0 || math.Abs(out-13) > 1e-9 {
			t.Errorf("ff(%g) = %g,%d,%v; want 13,0,true", in, out, n, ok)
		}
	}
	// Window 1: [11, 19] -> out 23.
	if out, n, ok := ff(15); !ok || n != 1 || math.Abs(out-23) > 1e-9 {
		t.Errorf("ff(15) = %g,%d,%v", out, n, ok)
	}
	// Window -1: [-9, -1] -> out 3.
	if out, n, ok := ff(-4); !ok || n != -1 || math.Abs(out-3) > 1e-9 {
		t.Errorf("ff(-4) = %g,%d,%v", out, n, ok)
	}
	// Illegal: inside [9, 11] (setup/hold fence around edge at 10).
	for _, in := range []float64{9.5, 10, 10.9} {
		if _, _, ok := ff(in); ok {
			t.Errorf("ff(%g) accepted inside the fence", in)
		}
	}
}

func TestFFOutWithPhase(t *testing.T) {
	// Windows shift by 2.5.
	out, n, ok := unitOut(UnitFF, 2.5)(4)
	if !ok || n != 0 || math.Abs(out-15.5) > 1e-9 {
		t.Errorf("ff(4)@phi=2.5 = %g,%d,%v; want 15.5,0,true", out, n, ok)
	}
}

func TestLatchOutRegions(t *testing.T) {
	latch := unitOut(UnitLatch, 0)
	// Non-transparent part of window 0: [1, 5): leaves at open(5)+tcq=8.
	if out, n, ok := latch(2); !ok || n != 0 || math.Abs(out-8) > 1e-9 {
		t.Errorf("latch(2) = %g,%d,%v; want 8,0,true", out, n, ok)
	}
	// Transparent but still clock-dominated: max(8, 7+1) = 8.
	if out, n, ok := latch(7); !ok || n != 0 || math.Abs(out-8) > 1e-9 {
		t.Errorf("latch(7) = %g,%d,%v; want 8,0,true", out, n, ok)
	}
	// Deep in the transparent phase: data-dominated, 8.5+1.
	if out, _, ok := latch(8.5); !ok || math.Abs(out-9.5) > 1e-9 {
		t.Errorf("latch(8.5) = %g,%v; want 9.5", out, ok)
	}
	// Fence violation.
	if _, _, ok := latch(9.5); ok {
		t.Error("latch(9.5) accepted inside the fence")
	}
}

// outputGap walks paper Fig. 2's x-axis: two signals enter a unit, the
// fast one at fastIn and the slow one gap later, and outputGap returns
// the gap between them at the unit's output. ok is false when either
// signal misses a legal window or the two fall into different windows.
func outputGap(out func(float64) (float64, int, bool), fastIn, gap float64) (float64, bool) {
	of, nf, ok1 := out(fastIn)
	os, ns, ok2 := out(fastIn + gap)
	if !ok1 || !ok2 || nf != ns {
		return 0, false
	}
	return os - of, true
}

func TestOutputGapShapes(t *testing.T) {
	ff, latch := unitOut(UnitFF, 0), unitOut(UnitLatch, 0)
	// Buffer and no unit: gap preserved (Fig. 2a).
	if g, ok := outputGap(unitOut(UnitNone, 0), 2+2, 3); !ok || g != 3 {
		t.Errorf("buffer gap = %g,%v", g, ok)
	}
	// FF: gap collapses to zero when both arrive in one window (Fig. 2b).
	if g, ok := outputGap(ff, 2, 5); !ok || g != 0 {
		t.Errorf("ff gap = %g,%v", g, ok)
	}
	// Latch, both while closed: gap collapses.
	if g, ok := outputGap(latch, 1.5, 2); !ok || g != 0 {
		t.Errorf("latch closed gap = %g,%v", g, ok)
	}
	// Latch, both deep in the transparent phase: gap preserved.
	if g, ok := outputGap(latch, 8, 1); !ok || g != 1 {
		t.Errorf("latch open gap = %g,%v", g, ok)
	}
	// Latch, fast closed / slow open: gap partially reduced (Fig. 2c).
	g, ok := outputGap(latch, 3, 5.5) // fast leaves at 8, slow at 9.5
	if !ok || g <= 0 || g >= 5.5 {
		t.Errorf("latch mixed gap = %g,%v; want in (0,5.5)", g, ok)
	}
}

// Property: the buffer preserves the gap, the FF output gap is always zero
// within a window, and the latch output gap never exceeds the input gap
// (Fig. 2's monotone gap-reduction property).
func TestPropertyGapNeverGrows(t *testing.T) {
	none, ff, latch := unitOut(UnitNone, 0), unitOut(UnitFF, 0), unitOut(UnitLatch, 0)
	f := func(fastRaw, gapRaw float64) bool {
		fast := math.Mod(math.Abs(fastRaw), 8) + 1.0 // [1,9)
		gap := math.Mod(math.Abs(gapRaw), 7)         // [0,7)
		if g, ok := outputGap(none, fast+2, gap); !ok || math.Abs(g-gap) > 1e-9 {
			return false
		}
		// Slow signals outside the legal window are skipped (ok=false).
		if g, ok := outputGap(ff, fast, gap); ok && math.Abs(g) > 1e-9 {
			return false
		}
		if g, ok := outputGap(latch, fast, gap); ok && (g < -1e-9 || g > gap+1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitKindString(t *testing.T) {
	for k, w := range map[UnitKind]string{
		UnitNone: "none", UnitFF: "ff", UnitLatch: "latch", UnitKind(9): "unit?",
	} {
		if k.String() != w {
			t.Errorf("UnitKind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
}
