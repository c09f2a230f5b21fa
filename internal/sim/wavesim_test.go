package sim

import (
	"fmt"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// waveMix models the structures VirtualSync emits: phase-shifted
// flip-flops, latch delay units (one with a transparency window
// wrapping into the next cycle), and a gate reconverging a latch path
// with a direct flip-flop path — the shape that makes per-net
// single-wave indexing unsound and forced WaveSim to be a true event
// engine.
func waveMix(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("wm")
	in := c.MustAdd("in", netlist.KindInput)
	f0 := c.MustAdd("F0", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindNot, f0.ID)
	l1 := c.MustAdd("L1", netlist.KindLatch, g1.ID)
	l1.Phase = 0.3
	a := c.MustAdd("a", netlist.KindAnd, l1.ID, f0.ID)
	l2 := c.MustAdd("L2", netlist.KindLatch, a.ID)
	l2.Phase = 0.7 // opens at 1.2 with duty 0.5: window wraps the cycle
	x := c.MustAdd("x", netlist.KindXor, l2.ID, f0.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, x.ID)
	f2.Phase = 0.5
	c.MustAdd("out", netlist.KindOutput, f2.ID)
	return c
}

// libTdq is lib31 with latch data-to-q delay tdq (lib31's is 0.5,
// below its Tcq of 1).
func libTdq(t testing.TB, tdq float64) *celllib.Library {
	l := lib31(t)
	l.Latch.Tdq = tdq
	return l
}

// TestWaveSimMatchesEventEngine is the exactness pin: every lane of a
// WaveSim run must reproduce the scalar event engine bit for bit, from
// cycle 0, with no warmup and no period restrictions — including tight
// periods where logic waves from adjacent cycles genuinely overlap. It
// runs with latch Tdq below Tcq, where a pass-through is floored at the
// opening response, and above it (within the monotonicity bound at
// every period), where it never is.
func TestWaveSimMatchesEventEngine(t *testing.T) {
	circuits := map[string]*netlist.Circuit{
		"pipeline": pipeline(t),
		"latchMix": latchMix(t),
		"waveMix":  waveMix(t),
	}
	libs := map[string]*celllib.Library{"": lib31(t), "Tdq=2.5/": libTdq(t, 2.5)}
	for prefix, lib := range libs {
		for name, c := range circuits {
			for _, T := range []float64{4, 5.5, 10, 10000} {
				t.Run(fmt.Sprintf("%s%s/T=%g", prefix, name, T), func(t *testing.T) {
					const cycles = 16
					scalar, words := packedRandom(t, c, cycles, 64)
					ws, err := NewWave(c, lib, WaveOptions{T: T, Cycles: cycles, Lanes: 64})
					if err != nil {
						t.Fatal(err)
					}
					bt, err := ws.Run(words)
					if err != nil {
						t.Fatal(err)
					}
					compareAllLanesLib(t, c, lib, T, cycles, 0, scalar, bt)
				})
			}
		}
	}
}

// TestWaveSimMultiWordLanes runs WaveSim at K = 2, 3, 4 and 16 words per
// value (1024 lanes is the verify-wide benchmark's width).
func TestWaveSimMultiWordLanes(t *testing.T) {
	c := waveMix(t)
	for _, lanes := range []int{65, 130, 200, 1024} {
		const cycles = 12
		scalar, words := packedRandom(t, c, cycles, lanes)
		ws, err := NewWave(c, lib31(t), WaveOptions{T: 5.5, Cycles: cycles, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := ws.Run(words)
		if err != nil {
			t.Fatal(err)
		}
		if bt.K != (lanes+63)/64 {
			t.Fatalf("lanes=%d: trace K=%d, want %d", lanes, bt.K, (lanes+63)/64)
		}
		compareAllLanes(t, c, 5.5, cycles, 0, scalar, bt)
	}
}

func TestWaveSimReusedAcrossRuns(t *testing.T) {
	c := waveMix(t)
	const cycles = 12
	scalarA, wordsA := packedRandom(t, c, cycles, 64)
	ws, err := NewWave(c, lib31(t), WaveOptions{T: 6, Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// First run on inverted stimulus, then re-run on A: the reused
	// buffers (queue, arena, marks, trace) must not leak state.
	_, wordsB := packedRandom(t, c, cycles, 64)
	for cyc := range wordsB {
		for i := range wordsB[cyc] {
			wordsB[cyc][i] = ^wordsB[cyc][i]
		}
	}
	if _, err := ws.Run(wordsB); err != nil {
		t.Fatal(err)
	}
	bt, err := ws.Run(wordsA)
	if err != nil {
		t.Fatal(err)
	}
	compareAllLanes(t, c, 6, cycles, 0, scalarA, bt)
}

// TestWaveSimOneEventPerGateAndInstant pins the coalescing of
// same-instant fanin changes. Input a reaches XOR x through a buffer and
// an inverter of equal delay, and input b through a third buffer, so
// three fanins of x commit under one key and the scalar engine
// schedules x three times per instant (two zero-width glitches that
// would ripple down the chain). WaveSim must queue at most one signal
// event per gate per key and still match the scalar engine on every
// lane. b commits first, so x's event must hold the final state of
// every fanin, not only the last one's change.
//
// Latch L1 behind x opens at the instant x changes, so its opening
// response and x's pass-through, floored to the response's time, share
// a key: L1 commits twice under one key, as in the scalar engine. The
// open latch L2 behind it must still be queued once per key, not once
// per commit of its data input.
func TestWaveSimOneEventPerGateAndInstant(t *testing.T) {
	c := netlist.New("reconv")
	b := c.MustAdd("b", netlist.KindInput)
	a := c.MustAdd("a", netlist.KindInput)
	pb := c.MustAdd("pb", netlist.KindBuf, b.ID)
	pa := c.MustAdd("pa", netlist.KindBuf, a.ID)
	na := c.MustAdd("na", netlist.KindNot, a.ID)
	x := c.MustAdd("x", netlist.KindXor, pa.ID, na.ID, pb.ID)
	c1 := c.MustAdd("c1", netlist.KindBuf, x.ID)
	c2 := c.MustAdd("c2", netlist.KindNot, c1.ID)
	f := c.MustAdd("F", netlist.KindDFF, c2.ID)
	c.MustAdd("out", netlist.KindOutput, f.ID)
	// x changes at 6 past each cycle start; L1 opens at 16+10 = 26,
	// which is 6 past the next, and L2 is open from 0 to 10 past it.
	l1 := c.MustAdd("L1", netlist.KindLatch, x.ID)
	l1.Phase = 0.8
	l2 := c.MustAdd("L2", netlist.KindLatch, l1.ID)
	l2.Phase = 0.5
	c.MustAdd("lout", netlist.KindOutput, l2.ID)

	const cycles, T = 16, 20.0
	scalar, words := packedRandom(t, c, cycles, 64)
	ws, err := NewWave(c, lib31(t), WaveOptions{T: T, Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Run's loop, counting each signal key's events per node before the
	// key drains.
	ws.start()
	perKey := make(map[int32]int)
	events, l1Shared, l2Events := 0, 0, 0
	for {
		key, ok := ws.queue.next()
		if !ok {
			break
		}
		if key.kind == evSignal {
			clear(perKey)
			q := &ws.queue
			for it := q.buckets[q.cur].head; it >= 0; it = q.items[it].next {
				id := q.items[it].e.node
				perKey[id]++
				events++
			}
			for id, n := range perKey {
				switch {
				case id == int32(l1.ID):
					if n > 1 {
						l1Shared++
					}
				case n > 1:
					t.Fatalf("%d events for %s queued at t=%g", n, c.Node(netlist.NodeID(id)).Name, key.time)
				case id == int32(l2.ID):
					l2Events++
				}
			}
		}
		ws.drain(key, words)
	}
	if events == 0 || l2Events == 0 {
		t.Fatalf("%d signal events queued, %d for L2", events, l2Events)
	}
	if l1Shared == 0 {
		t.Fatal("L1 never committed twice under one key, so L2's coalescing went untested")
	}
	compareAllLanes(t, c, T, cycles, 0, scalar, &ws.trace)
}

func TestWaveSimAllocFree(t *testing.T) {
	c := waveMix(t)
	const cycles = 16
	ws, err := NewWave(c, lib31(t), WaveOptions{T: 6, Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, words := packedRandom(t, c, cycles, 64)
	if _, err := ws.Run(words); err != nil { // warm the buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := ws.Run(words); err != nil {
			t.Error(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("steady-state WaveSim Run allocates %.1f objects, want 0", avg)
	}
}

func TestWaveSimRejects(t *testing.T) {
	c := waveMix(t)
	lib := lib31(t)
	if _, err := NewWave(c, lib, WaveOptions{T: 0, Cycles: 4, Lanes: 1}); err == nil {
		t.Fatal("zero period should be rejected")
	}
	if _, err := NewWave(c, lib, WaveOptions{T: 10, Cycles: 0, Lanes: 1}); err == nil {
		t.Fatal("zero cycles should be rejected")
	}
	if _, err := NewWave(c, lib, WaveOptions{T: 10, Cycles: 4, Lanes: MaxLanes + 1}); err == nil {
		t.Fatal("oversized lane count should be rejected")
	}
	loop := netlist.New("loop")
	in := loop.MustAdd("in", netlist.KindInput)
	g1 := loop.MustAdd("g1", netlist.KindAnd, in.ID, in.ID)
	g2 := loop.MustAdd("g2", netlist.KindNot, g1.ID)
	g1.Fanins[1] = g2.ID // combinational feedback: no settled start state
	loop.MustAdd("out", netlist.KindOutput, g2.ID)
	if _, err := NewWave(loop, lib, WaveOptions{T: 10, Cycles: 4, Lanes: 1}); err == nil {
		t.Fatal("combinational cycle should be rejected")
	}
	// Tdq−Tcq = 5 exceeds the opaque 2 of T = 4, so a pass-through can
	// land after the next opening response; the event engine itself
	// then disagrees with WaveSim on waveMix. A latch-free circuit is
	// unaffected, and so is a period whose opaque span covers it.
	slow := libTdq(t, 6)
	if _, err := NewWave(c, slow, WaveOptions{T: 4, Cycles: 4, Lanes: 1}); err == nil {
		t.Fatal("latch Tdq past the monotonicity bound should be rejected")
	}
	if _, err := NewWave(c, slow, WaveOptions{T: 10, Cycles: 4, Lanes: 1}); err != nil {
		t.Fatalf("latch Tdq within the bound at T = 10: %v", err)
	}
	if _, err := NewWave(pipeline(t), slow, WaveOptions{T: 4, Cycles: 4, Lanes: 1}); err != nil {
		t.Fatalf("latch-free circuit rejected for its library's latch: %v", err)
	}
	ws, err := NewWave(c, lib, WaveOptions{T: 10, Cycles: 4, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Run(nil); err == nil {
		t.Fatal("missing stimulus should be rejected")
	}
	if _, err := ws.Run(make([][]uint64, 4)); err == nil {
		t.Fatal("wrong-width stimulus should be rejected")
	}
}

// TestVerifyEquivalenceLanes drives the packed differential helper on a
// pair of genuinely different circuits and on an identical pair,
// checking engine selection and the mismatch mask.
func TestVerifyEquivalenceLanes(t *testing.T) {
	lib := lib31(t)
	orig := pipeline(t)
	same := pipeline(t)
	const lanes = 96
	stims := LaneStimulus(orig, 12, 2, 42, lanes)
	lr, err := VerifyEquivalenceLanes(orig, same, lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if lr.FlaggedLanes() > 0 {
		t.Fatalf("identical circuits disagree: mask %v", lr.Mask)
	}
	if lr.EngineA != EngineBitSim || lr.EngineB != EngineBitSim {
		t.Fatalf("phase-0 DFF pair should both run BitSim, got %s/%s", lr.EngineA, lr.EngineB)
	}
	if lr.Lanes != lanes || lr.K != 2 {
		t.Fatalf("report lanes=%d K=%d, want %d/2", lr.Lanes, lr.K, lanes)
	}

	// A wave-pipelined side must select WaveSim.
	wavy := waveMix(t)
	stims2 := LaneStimulus(wavy, 12, 2, 42, lanes)
	lr, err = VerifyEquivalenceLanes(wavy, wavy, lib, 8, 8, 2, stims2)
	if err != nil {
		t.Fatal(err)
	}
	if lr.EngineA != EngineWaveSim || lr.EngineB != EngineWaveSim {
		t.Fatalf("latch-bearing pair should both run WaveSim, got %s/%s", lr.EngineA, lr.EngineB)
	}
	if lr.FlaggedLanes() > 0 {
		t.Fatalf("self-comparison disagrees: mask %v", lr.Mask)
	}

	// A real functional difference must flag every lane that exposes
	// it, and lane 0 must match the scalar differential verdict.
	broken := netlist.New("p")
	in := broken.MustAdd("in", netlist.KindInput)
	f1 := broken.MustAdd("F1", netlist.KindDFF, in.ID)
	g := broken.MustAdd("g", netlist.KindBuf, f1.ID) // NOT in the original
	f2 := broken.MustAdd("F2", netlist.KindDFF, g.ID)
	broken.MustAdd("out", netlist.KindOutput, f2.ID)
	lr, err = VerifyEquivalenceLanes(orig, broken, lib, 10, 10, 2, stims)
	if err != nil {
		t.Fatal(err)
	}
	if lr.FlaggedLanes() == 0 {
		t.Fatal("inverter-vs-buffer pair compared equal")
	}
	ms, err := VerifyEquivalenceStim(orig, broken, lib, 10, 10, 2, stims[0])
	if err != nil {
		t.Fatal(err)
	}
	if (len(ms) > 0) != MaskHasLane(lr.Mask, 0) {
		t.Fatalf("lane-0 mask bit %v disagrees with scalar verdict (%d mismatches)", MaskHasLane(lr.Mask, 0), len(ms))
	}
}

// TestLaneEngineTimingGate pins the zero-delay safety condition: a
// circuit whose every sequential element is a phase-0 DFF passes the
// structural BitSimExact test, but once its combinational path is
// longer than the clock period — exactly what VirtualSync's optimizer
// produces — zero-delay semantics diverge from the event engine, and
// laneEngine must fall back to WaveSim.
func TestLaneEngineTimingGate(t *testing.T) {
	lib := lib31(t)
	c := netlist.New("longpath")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindNot, f1.ID)
	g2 := c.MustAdd("g2", netlist.KindNot, g1.ID)
	g3 := c.MustAdd("g3", netlist.KindNot, g2.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, g3.ID)
	c.MustAdd("out", netlist.KindOutput, f2.ID)
	if !BitSimExact(c) {
		t.Fatal("phase-0 DFF circuit should pass the structural test")
	}
	// Path delay: Tcq 1 + 3 gates x 3 = 10.
	if settlesWithin(c, lib, 8) {
		t.Fatal("10-unit path reported settled within T=8")
	}
	if !settlesWithin(c, lib, 11) {
		t.Fatal("10-unit path reported unsettled within T=11")
	}
	if settlesWithin(c, lib, 10) {
		t.Fatal("path landing exactly on the capture edge must not count as settled")
	}

	// At the short period the engine must switch to WaveSim and still
	// match the scalar event oracle lane for lane.
	const lanes = 70
	stims := LaneStimulus(c, 16, 2, 9, lanes)
	lr, err := VerifyEquivalenceLanes(c, c, lib, 8, 8, 0, stims)
	if err != nil {
		t.Fatal(err)
	}
	if lr.EngineA != EngineWaveSim || lr.EngineB != EngineWaveSim {
		t.Fatalf("wave-pipelined pair ran %s/%s, want wavesim", lr.EngineA, lr.EngineB)
	}
	if lr.FlaggedLanes() > 0 {
		t.Fatalf("self-comparison disagrees: mask %v", lr.Mask)
	}
	words, err := PackStimulus(stims)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWave(c, lib, WaveOptions{T: 8, Cycles: 16, Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := ws.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	compareAllLanes(t, c, 8, 16, 0, stims, bt)
}
