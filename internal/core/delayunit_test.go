package core

import (
	"math"
	"testing"
	"testing/quick"
)

func unitT() UnitTiming {
	return UnitTiming{T: 10, Phi: 0, Tcq: 3, Tdq: 1, Tsu: 1, Th: 1, Delay: 2}
}

func TestBufferOutLinear(t *testing.T) {
	u := unitT()
	for _, in := range []float64{-5, 0, 3.7, 12} {
		if got := u.BufferOut(in); got != in+2 {
			t.Errorf("BufferOut(%g) = %g", in, got)
		}
	}
}

func TestFFOutWindows(t *testing.T) {
	u := unitT()
	// Window 0: [1, 9] -> out 13.
	for _, in := range []float64{1, 5, 9} {
		out, n, ok := u.FFOut(in)
		if !ok || n != 0 || math.Abs(out-13) > 1e-9 {
			t.Errorf("FFOut(%g) = %g,%d,%v; want 13,0,true", in, out, n, ok)
		}
	}
	// Window 1: [11, 19] -> out 23.
	if out, n, ok := u.FFOut(15); !ok || n != 1 || math.Abs(out-23) > 1e-9 {
		t.Errorf("FFOut(15) = %g,%d,%v", out, n, ok)
	}
	// Window -1: [-9, -1] -> out 3.
	if out, n, ok := u.FFOut(-4); !ok || n != -1 || math.Abs(out-3) > 1e-9 {
		t.Errorf("FFOut(-4) = %g,%d,%v", out, n, ok)
	}
	// Illegal: inside [9, 11] (setup/hold fence around edge at 10).
	for _, in := range []float64{9.5, 10, 10.9} {
		if _, _, ok := u.FFOut(in); ok {
			t.Errorf("FFOut(%g) accepted inside the fence", in)
		}
	}
}

func TestFFOutWithPhase(t *testing.T) {
	u := unitT()
	u.Phi = 2.5 // windows shift by 2.5
	out, n, ok := u.FFOut(4)
	if !ok || n != 0 || math.Abs(out-15.5) > 1e-9 {
		t.Errorf("FFOut(4)@phi=2.5 = %g,%d,%v; want 15.5,0,true", out, n, ok)
	}
}

func TestLatchOutRegions(t *testing.T) {
	u := unitT()
	// Non-transparent part of window 0: [1, 5): leaves at open(5)+tcq=8.
	if out, n, ok := u.LatchOut(2); !ok || n != 0 || math.Abs(out-8) > 1e-9 {
		t.Errorf("LatchOut(2) = %g,%d,%v; want 8,0,true", out, n, ok)
	}
	// Transparent but still clock-dominated: max(8, 7+1) = 8.
	if out, n, ok := u.LatchOut(7); !ok || n != 0 || math.Abs(out-8) > 1e-9 {
		t.Errorf("LatchOut(7) = %g,%d,%v; want 8,0,true", out, n, ok)
	}
	// Deep in the transparent phase: data-dominated, 8.5+1.
	if out, _, ok := u.LatchOut(8.5); !ok || math.Abs(out-9.5) > 1e-9 {
		t.Errorf("LatchOut(8.5) = %g,%v; want 9.5", out, ok)
	}
	// Fence violation.
	if _, _, ok := u.LatchOut(9.5); ok {
		t.Error("LatchOut(9.5) accepted inside the fence")
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
	u := unitT()
	// Buffer: gap preserved (Fig. 2a).
	if g := u.BufferOut(2+3) - u.BufferOut(2); g != 3 {
		t.Errorf("buffer gap = %g", g)
	}
	// FF: gap collapses to zero when both arrive in one window (Fig. 2b).
	if g, ok := outputGap(u.FFOut, 2, 5); !ok || g != 0 {
		t.Errorf("ff gap = %g,%v", g, ok)
	}
	// Latch, both while closed: gap collapses.
	if g, ok := outputGap(u.LatchOut, 1.5, 2); !ok || g != 0 {
		t.Errorf("latch closed gap = %g,%v", g, ok)
	}
	// Latch, both deep in the transparent phase: gap preserved.
	if g, ok := outputGap(u.LatchOut, 8, 1); !ok || g != 1 {
		t.Errorf("latch open gap = %g,%v", g, ok)
	}
	// Latch, fast closed / slow open: gap partially reduced (Fig. 2c).
	g, ok := outputGap(u.LatchOut, 3, 5.5) // fast leaves at 8, slow at 9.5
	if !ok || g <= 0 || g >= 5.5 {
		t.Errorf("latch mixed gap = %g,%v; want in (0,5.5)", g, ok)
	}
}

// Property: the buffer preserves the gap, the FF output gap is always zero
// within a window, and the latch output gap never exceeds the input gap
// (Fig. 2's monotone gap-reduction property).
func TestPropertyGapNeverGrows(t *testing.T) {
	u := unitT()
	f := func(fastRaw, gapRaw float64) bool {
		fast := math.Mod(math.Abs(fastRaw), 8) + 1.0 // [1,9)
		gap := math.Mod(math.Abs(gapRaw), 7)         // [0,7)
		if g := u.BufferOut(fast+gap) - u.BufferOut(fast); math.Abs(g-gap) > 1e-9 {
			return false
		}
		// Slow signals outside the legal window are skipped (ok=false).
		if g, ok := outputGap(u.FFOut, fast, gap); ok && math.Abs(g) > 1e-9 {
			return false
		}
		if g, ok := outputGap(u.LatchOut, fast, gap); ok && (g < -1e-9 || g > gap+1e-9) {
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
