package sim

import (
	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// confirmLaneCap bounds how many flagged lanes CheckEquivalence
// re-simulates on the event engine; flagged lanes past the cap stay
// uncredited.
const confirmLaneCap = 8

// Verdict is the outcome of CheckEquivalence.
type Verdict struct {
	// Lanes counts the stimulus lanes the verdict covers: the full
	// width when every lane agreed (or when a widened lane failed),
	// fewer when flagged lanes stayed unconfirmed, 1 when the
	// two-event-sim oracle decided alone.
	Lanes int
	// FastPath marks verdicts reached on the bit-parallel engines under
	// event-engine calibration; false means the oracle decided alone.
	FastPath bool
	// Flagged counts the lanes the bit-parallel comparison flagged.
	Flagged int
	// FailLane is the lane on which the two-event-sim oracle found
	// Mismatches; -1 when the circuits agree.
	FailLane   int
	Mismatches []Mismatch
}

// OK reports whether the circuits agreed on every covered lane.
func (v *Verdict) OK() bool { return v.FailLane < 0 }

// CheckEquivalence decides whether b reproduces a's trace on every
// common flip-flop and primary output from cycle warmup onward, over
// the given per-lane stimulus (at least one lane). It is the one
// equivalence verdict of the flow.
//
// With one lane the two-event-sim oracle (VerifyEquivalenceStim) runs
// alone. With more, both sides first run bit-parallel
// (VerifyEquivalenceLanes) and the scalar event engine calibrates lane
// 0: it simulates the optimized side b always, and the original side a
// when a ran on WaveSim, and lane 0 of each word engine must reproduce
// its trace exactly. Any engine error, calibration miss or lane-0
// difference hands the verdict to the oracle on lane 0. Flagged wider
// lanes are re-simulated on the event engine, lowest first and at most
// confirmLaneCap of them: a lane the event engine clears was an engine
// artifact, and a lane it confirms is re-verified through the oracle
// before it fails. A Fail therefore always carries oracle mismatches.
// A non-nil error means an event simulation could not run.
func CheckEquivalence(a, b *netlist.Circuit, lib *celllib.Library, Ta, Tb float64, warmup int, stims [][][]bool) (*Verdict, error) {
	oracle := func() (*Verdict, error) {
		ms, err := VerifyEquivalenceStim(a, b, lib, Ta, Tb, warmup, stims[0])
		if err != nil {
			return nil, err
		}
		v := &Verdict{Lanes: 1, FailLane: -1}
		if len(ms) > 0 {
			v.FailLane, v.Mismatches = 0, ms
		}
		return v, nil
	}
	lanes := len(stims)
	if lanes == 1 {
		return oracle()
	}
	lr, err := VerifyEquivalenceLanes(a, b, lib, Ta, Tb, warmup, stims)
	if err != nil {
		// The word engines could not run the pair (mismatched inputs,
		// or a circuit WaveSim cannot build): not a verdict.
		return oracle()
	}

	// Lane-0 calibration. WaveSim is exact by construction, so a miss
	// means an engine bug and neither word engine is trusted.
	evB, trB, err := runEvent(b, lib, Tb, stims[0])
	if err != nil {
		return oracle()
	}
	wordB, errB := lr.TraceB.Lane(0)
	wordA, errA := lr.TraceA.Lane(0)
	if errA != nil || errB != nil || len(CompareTraces(trB, wordB, warmup)) > 0 {
		return oracle()
	}
	if lr.EngineA == EngineWaveSim {
		_, trA, err := runEvent(a, lib, Ta, stims[0])
		if err != nil || len(CompareTraces(trA, wordA, warmup)) > 0 {
			return oracle()
		}
	}
	if len(CompareTraces(wordA, trB, warmup)) > 0 {
		return oracle()
	}

	// Lane 0 agrees on both engines, so only wider lanes can be flagged.
	v := &Verdict{Lanes: lanes, FastPath: true, Flagged: lr.FlaggedLanes(), FailLane: -1}
	cleared, checked := 0, 0
	for l := 1; l < lanes && checked < min(v.Flagged, confirmLaneCap); l++ {
		if !MaskHasLane(lr.Mask, l) {
			continue
		}
		checked++
		trL, err := evB.Run(stims[l])
		if err != nil {
			return nil, err
		}
		wordL, err := lr.TraceA.Lane(l)
		if err != nil {
			break
		}
		if len(CompareTraces(wordL, trL, warmup)) == 0 {
			cleared++
			continue
		}
		ms, err := VerifyEquivalenceStim(a, b, lib, Ta, Tb, warmup, stims[l])
		if err != nil {
			return nil, err
		}
		if len(ms) > 0 {
			v.FailLane, v.Mismatches = l, ms
			return v, nil
		}
	}
	v.Lanes -= v.Flagged - cleared
	return v, nil
}

// runEvent simulates c on the scalar event engine over one stimulus,
// returning the simulator for reuse on further stimulus.
func runEvent(c *netlist.Circuit, lib *celllib.Library, T float64, stim [][]bool) (*Simulator, Trace, error) {
	s, err := New(c, lib, Options{T: T, Cycles: len(stim)})
	if err != nil {
		return nil, nil, err
	}
	tr, err := s.Run(stim)
	return s, tr, err
}
