package verify

import (
	"context"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
	"virtualsync/internal/sta"
)

// TestBitSimMatchesEventOnSuite runs BitSim on the circuits the flow
// hands it — every paper-suite original after the retiming&sizing
// baseline — and holds lanes 0, 31 and 63 to the event engine at the
// guard-banded baseline period the equivalence check runs the original
// at, cycle for cycle. FuzzBitSimAgainstEventSim covers
// only the small circuits the case decoder builds.
func TestBitSimMatchesEventOnSuite(t *testing.T) {
	const cycles, lanes = 24, 64
	lib := celllib.Default()
	for _, spec := range gen.PaperSuite() {
		t.Run(spec.Name, func(t *testing.T) {
			c, err := gen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			base, _, err := retime.Baseline(c, lib)
			if err != nil {
				t.Fatal(err)
			}
			Tmin, err := sta.MinPeriod(base, lib)
			if err != nil {
				t.Fatal(err)
			}
			T := Tmin * core.DefaultOptions().Ru // core.Result.BaselinePeriod
			stims := sim.LaneStimulus(base, cycles, 0, spec.Seed, lanes)
			words, err := sim.PackStimulus(stims)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := sim.NewBit(base, sim.BitOptions{Cycles: cycles, Lanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			bt, err := bs.Run(words)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := sim.New(base, lib, sim.Options{T: T, Cycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range []int{0, 31, 63} {
				ref, err := ev.Run(stims[l])
				if err != nil {
					t.Fatal(err)
				}
				lane, err := bt.Lane(l)
				if err != nil {
					t.Fatal(err)
				}
				if mm := sim.CompareTraces(ref, lane, 0); len(mm) > 0 {
					t.Fatalf("lane %d diverges from the event engine at T=%g: %v", l, T, mm[0])
				}
			}
		})
	}
}

// TestWaveSimMatchesEventOnSuite runs WaveSim on the circuits it exists
// for, every paper-suite circuit as the flow optimizes it, and holds
// every lane to the event engine at the optimized period, cycle for
// cycle from cycle 0. FuzzWaveBitSimAgainstEventSim and
// FuzzWaveSimAgainstEventSim cover only the small circuits the case
// decoder builds.
func TestWaveSimMatchesEventOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes all ten suite circuits")
	}
	const cycles, lanes = 48, 128
	lib := celllib.Default()
	for _, spec := range gen.PaperSuite() {
		t.Run(spec.Name, func(t *testing.T) {
			c, err := gen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			base, _, err := retime.Baseline(c, lib)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.OptimizeObserved(context.Background(), base, lib, core.DefaultOptions(), core.DefaultStepFrac, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt, T := res.Circuit, res.Period
			stims := sim.LaneStimulus(opt, cycles, 0, spec.Seed, lanes)
			words, err := sim.PackStimulus(stims)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := sim.NewWave(opt, lib, sim.WaveOptions{T: T, Cycles: cycles, Lanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			bt, err := ws.Run(words)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := sim.New(opt, lib, sim.Options{T: T, Cycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			for l := range stims {
				ref, err := ev.Run(stims[l])
				if err != nil {
					t.Fatal(err)
				}
				lane, err := bt.Lane(l)
				if err != nil {
					t.Fatal(err)
				}
				if mm := sim.CompareTraces(ref, lane, 0); len(mm) > 0 {
					t.Fatalf("lane %d diverges from the event engine at T=%g: %v", l, T, mm[0])
				}
			}
		})
	}
}
