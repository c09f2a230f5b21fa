package core

import (
	"context"
	"fmt"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
)

// TestWavePipeFunctionalEquivalence is the reproduction's strongest check:
// the optimized wave-pipelined circuit, running at its reduced period,
// must capture exactly the same values at boundary flip-flops and primary
// outputs, cycle for cycle, as the original running at its own period.
func TestWavePipeFunctionalEquivalence(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	origT := res.BaselinePeriod // margined period: safely functional
	ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, origT, res.Period,
		6, sim.RandomStimulus(c, 60, 12345))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("functional mismatch after optimization (%d diffs), first: %v", len(ms), ms[0])
	}
}

func TestLoopFunctionalEquivalence(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, res.BaselinePeriod, res.Period,
		8, sim.RandomStimulus(c, 60, 99))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("loop functional mismatch (%d diffs), first: %v", len(ms), ms[0])
	}
}

func TestEquivalenceAcrossSeeds(t *testing.T) {
	c := wavePipe(t)
	lib := paperLib(t)
	res, err := OptimizeObserved(context.Background(), c, lib, DefaultOptions(), 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 1000, -7} {
		ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, res.BaselinePeriod, res.Period,
			6, sim.RandomStimulus(c, 40, seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatalf("seed %d: mismatch %v", seed, ms[0])
		}
	}
}

// latchPhaseLib is paperLib with flip-flop delay units priced out, so the
// optimizer must realize sequential delay with latches.
func latchPhaseLib(t testing.TB) *celllib.Library {
	t.Helper()
	l := celllib.Uniform(4,
		celllib.SeqTiming{Tcq: 3, Tsu: 1, Th: 1, Area: 400},
		celllib.SeqTiming{Tcq: 2, Tdq: 1, Tsu: 1, Th: 1, Area: 0.5})
	for d := 1; d <= 9; d++ {
		name := "W" + string(rune('0'+d))
		if _, err := l.AddCell(name, netlist.KindBuf, []celllib.Option{{Delay: float64(d), Area: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestLatchNonZeroPhaseEquivalence forces the optimizer to realize
// sequential delay with latch units on non-zero clock phases (the phase
// list excludes 0 and flip-flop units are priced out), then demands
// cycle-accurate equivalence — exercising the latch transparency-window
// model, which zero-phase FF-only cases never touch.
func TestLatchNonZeroPhaseEquivalence(t *testing.T) {
	c := wavePipe(t)
	lib := latchPhaseLib(t)
	opts := DefaultOptions()
	opts.Phases = []float64{0.25, 0.5, 0.75}
	res, err := OptimizeObserved(context.Background(), c, lib, opts, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLatchUnits == 0 {
		t.Fatalf("no latch units placed (period %g, %d FF units) — the test no longer exercises latches",
			res.Period, res.NumFFUnits)
	}
	nonZero := 0
	for _, lt := range res.Circuit.Latches() {
		if lt.Phase != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("every latch unit sits on phase 0")
	}
	for _, seed := range []int64{12345, 7, -3} {
		ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, res.BaselinePeriod, res.Period,
			8, sim.RandomStimulus(c, 60, seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatalf("seed %d: mismatch with %d non-zero-phase latches: %v", seed, nonZero, ms[0])
		}
	}
}

// deepPipe builds a two-removed-stage pipeline with a direct bypass wire:
//
//	in -> F1 -> a1..a4 (W6) -> F2a -> b1..b4 (W6) -> F2b -> gjoin -> F3
//	      F1 ------------------------------------------------^
//
// After F1/F2a/F2b are removed the slow wave spans three clock windows,
// and the bypass edge must stall its data across a window boundary — a
// multi-cycle N_wt path in the paper's model, realized as a lambda frame
// shift plus a sequential delay unit.
func deepPipe(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("deeppipe")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	prev := f1
	for i := 1; i <= 4; i++ {
		g := c.MustAdd(fmt.Sprintf("a%d", i), netlist.KindBuf, prev.ID)
		g.Cell = "W6"
		prev = g
	}
	f2a := c.MustAdd("F2a", netlist.KindDFF, prev.ID)
	prev = f2a
	for i := 1; i <= 4; i++ {
		g := c.MustAdd(fmt.Sprintf("b%d", i), netlist.KindBuf, prev.ID)
		g.Cell = "W6"
		prev = g
	}
	f2b := c.MustAdd("F2b", netlist.KindDFF, prev.ID)
	g4 := c.MustAdd("gjoin", netlist.KindAnd, f2b.ID, f1.ID)
	g4.Cell = "W4"
	f3 := c.MustAdd("F3", netlist.KindDFF, g4.ID)
	c.MustAdd("out", netlist.KindOutput, f3.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMultiCycleWindowEquivalence drives a wave across several clock
// windows. The exact model splits a multi-cycle N_wt into a per-edge
// lambda frame shift plus the unit's local window index N, so the test
// asserts the physical facts instead of one field: the wave must reach
// the sink two or more windows after launch, a sequential delay unit
// must sit on a window-crossing (lambda >= 1) edge, and the optimized
// circuit must stay cycle-accurate equivalent — which needs warmup
// cycles to cover the multi-cycle fill of the pipeline.
func TestMultiCycleWindowEquivalence(t *testing.T) {
	c := deepPipe(t)
	lib := paperLib(t)
	// Fine-grained cheap buffers: long chains become economical to
	// replace with sequential units (Section 5.4), which is what puts a
	// unit on the stalled bypass edge.
	lib.Cell("BUF").Options[0].Delay = 1
	res, err := OptimizeAtPeriod(context.Background(), c, lib, 15, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("T=15 infeasible for deepPipe")
	}
	if res.RemovedFFs != 3 {
		t.Fatalf("removed %d flip-flops, want all 3 internal stages", res.RemovedFFs)
	}
	p := res.Plan
	// Wave depth: longest cumulative lambda from any region source to any
	// sink. Depth >= 2 means data launched in window 0 is captured in
	// window 2 or later.
	depth := make(map[NodeRef]int)
	sinkDepth := 0
	for iter := 0; iter < len(p.R.Edges)+1; iter++ {
		for _, e := range p.R.Edges {
			d := depth[e.From] + e.Lambda
			if e.To.Kind == RefSink {
				if d > sinkDepth {
					sinkDepth = d
				}
			} else if d > depth[e.To] {
				depth[e.To] = d
			}
		}
	}
	if sinkDepth < 2 {
		t.Fatalf("wave only spans %d window crossings, want >= 2", sinkDepth)
	}
	unitOnCrossing := false
	for ei, u := range p.Unit {
		if (u.Kind == UnitFF || u.Kind == UnitLatch) && p.R.Edges[ei].Lambda >= 1 {
			unitOnCrossing = true
			t.Logf("edge %d: %v unit, lambda=%d, N=%d, phase=%g",
				ei, u.Kind, p.R.Edges[ei].Lambda, u.N, u.PhaseFrac)
		}
	}
	if !unitOnCrossing {
		t.Fatal("no sequential delay unit on a window-crossing edge")
	}
	for _, seed := range []int64{4242, 99, -1} {
		ms, err := sim.VerifyEquivalenceStim(c, res.Circuit, lib, res.BaselinePeriod, res.Period,
			12, sim.RandomStimulus(c, 80, seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatalf("seed %d: multi-cycle mismatch (%d diffs), first: %v", seed, len(ms), ms[0])
		}
	}
}
