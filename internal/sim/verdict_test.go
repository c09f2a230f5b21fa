package sim

import (
	"testing"

	"virtualsync/internal/netlist"
)

// brokenPipeline is pipeline with its inverter swapped for a buffer.
func brokenPipeline(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := pipeline(t)
	c.ByName("g").Kind = netlist.KindBuf
	return c
}

func TestCheckEquivalenceOneLaneIsOracle(t *testing.T) {
	lib := lib31(t)
	orig := pipeline(t)
	stims := LaneStimulus(orig, 12, 2, 42, 1)
	v, err := CheckEquivalence(orig, pipeline(t), lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || v.FastPath || v.Lanes != 1 {
		t.Fatalf("identical pair on one lane: %+v, want OK from the oracle alone", v)
	}
	v, err = CheckEquivalence(orig, brokenPipeline(t), lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := VerifyEquivalenceStim(orig, brokenPipeline(t), lib, 10, 10, 2, stims[0])
	if v.OK() || v.FailLane != 0 || len(v.Mismatches) != len(ms) {
		t.Fatalf("inverter-vs-buffer on one lane: %+v, want the oracle's %d mismatches at lane 0", v, len(ms))
	}
}

func TestCheckEquivalenceWide(t *testing.T) {
	lib := lib31(t)
	const lanes = 96
	orig := pipeline(t)
	stims := LaneStimulus(orig, 12, 2, 42, lanes)
	v, err := CheckEquivalence(orig, pipeline(t), lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || !v.FastPath || v.Lanes != lanes || v.Flagged != 0 {
		t.Fatalf("identical BitSim pair: %+v, want a clean fast-path pass over %d lanes", v, lanes)
	}

	// Both sides on WaveSim: the original's calibration leg runs too.
	wavy := waveMix(t)
	v, err = CheckEquivalence(wavy, waveMix(t), lib, 8, 8, 2, LaneStimulus(wavy, 12, 2, 42, lanes))
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || !v.FastPath || v.Lanes != lanes {
		t.Fatalf("identical WaveSim pair: %+v, want a clean fast-path pass over %d lanes", v, lanes)
	}

	// A lane-0 difference is handed to the oracle: the scalar shape.
	v, err = CheckEquivalence(orig, brokenPipeline(t), lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() || v.FailLane != 0 || v.FastPath || v.Lanes != 1 || len(v.Mismatches) == 0 {
		t.Fatalf("lane-0 difference: %+v, want an oracle Fail at lane 0", v)
	}

	// Circuits the engines cannot pair are not a verdict; the oracle
	// reports why.
	other := netlist.New("q")
	x := other.MustAdd("x", netlist.KindInput)
	other.MustAdd("out", netlist.KindOutput, other.MustAdd("F", netlist.KindDFF, x.ID).ID)
	if _, err := CheckEquivalence(orig, other, lib, 10, 10, 2, stims); err == nil {
		t.Fatal("pair with different inputs produced a verdict")
	}
}

// TestCheckEquivalenceLatchBoundToOracle: with a latch Tdq past
// WaveSim's monotonicity bound the word engines cannot run the latch
// side, so the pair goes to the lane-0 oracle, which still decides.
func TestCheckEquivalenceLatchBoundToOracle(t *testing.T) {
	lib := libTdq(t, 6)
	const T, lanes = 4, 96
	a := waveMix(t)
	stims := LaneStimulus(a, 12, 2, 42, lanes)
	v, err := CheckEquivalence(a, waveMix(t), lib, T, T, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() || v.FastPath || v.Lanes != 1 {
		t.Fatalf("identical pair past the bound: %+v, want OK from the oracle alone", v)
	}
	b := waveMix(t)
	b.ByName("x").Kind = netlist.KindXnor
	v, err = CheckEquivalence(a, b, lib, T, T, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := VerifyEquivalenceStim(a, b, lib, T, T, 2, stims[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || v.OK() || v.FastPath || v.FailLane != 0 || len(v.Mismatches) != len(ms) {
		t.Fatalf("XOR-vs-XNOR past the bound: %+v, want the oracle's %d mismatches at lane 0", v, len(ms))
	}
}
