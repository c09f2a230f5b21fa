package sim

import (
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// packedRandom builds lanes scalar stimulus sets with distinct seeds and
// packs them, returning both forms.
func packedRandom(t *testing.T, c *netlist.Circuit, cycles, lanes int) ([][][]bool, [][]uint64) {
	t.Helper()
	scalar := make([][][]bool, lanes)
	for l := range scalar {
		scalar[l] = RandomStimulus(c, cycles, int64(1000+l))
	}
	words, err := PackStimulus(scalar)
	if err != nil {
		t.Fatal(err)
	}
	return scalar, words
}

// compareAllLanes runs every lane's scalar stimulus through the event
// engine and checks the corresponding BitTrace lane cycle for cycle.
func compareAllLanes(t *testing.T, c *netlist.Circuit, T float64, cycles, warmup int, scalar [][][]bool, bt *BitTrace) {
	t.Helper()
	compareAllLanesLib(t, c, lib31(t), T, cycles, warmup, scalar, bt)
}

// compareAllLanesLib is compareAllLanes with the event engine on lib.
func compareAllLanesLib(t *testing.T, c *netlist.Circuit, lib *celllib.Library, T float64, cycles, warmup int, scalar [][][]bool, bt *BitTrace) {
	t.Helper()
	for l := range scalar {
		s, err := New(c, lib, Options{T: T, Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.Run(scalar[l])
		if err != nil {
			t.Fatal(err)
		}
		lane, err := bt.Lane(l)
		if err != nil {
			t.Fatal(err)
		}
		if mm := CompareTraces(ref, lane, warmup); len(mm) != 0 {
			t.Fatalf("lane %d diverges from event engine: %v", l, mm[0])
		}
	}
}

func TestBitSimMatchesEventPipeline(t *testing.T) {
	c := pipeline(t)
	if !BitSimExact(c) {
		t.Fatal("phase-0 DFF pipeline should be BitSimExact")
	}
	const cycles = 16
	scalar, words := packedRandom(t, c, cycles, 64)
	bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bs.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	compareAllLanes(t, c, 10, cycles, 0, scalar, bt)
}

func TestBitSimXorFeedback(t *testing.T) {
	// Sequential feedback through a phase-0 DFF: running parity.
	c := netlist.New("par")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	x := c.MustAdd("x", netlist.KindXor, f1.ID, f1.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, x.ID)
	x.Fanins[1] = f2.ID
	c.MustAdd("out", netlist.KindOutput, f2.ID)

	const cycles = 20
	scalar, words := packedRandom(t, c, cycles, 64)
	bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bs.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	compareAllLanes(t, c, 10, cycles, 0, scalar, bt)
}

// latchMix is a circuit exercising non-zero clock phases: a phase-0.5
// flip-flop, a mid-cycle latch, and a latch whose transparency window
// wraps into the next cycle (phase 0.6 + duty 0.5 opens at 1.1).
func latchMix(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("lm")
	in := c.MustAdd("in", netlist.KindInput)
	f0 := c.MustAdd("F0", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindNot, f0.ID)
	l1 := c.MustAdd("L1", netlist.KindLatch, g1.ID)
	l1.Phase = 0.25
	g2 := c.MustAdd("g2", netlist.KindBuf, l1.ID)
	f1 := c.MustAdd("F1", netlist.KindDFF, g2.ID)
	f1.Phase = 0.5
	g3 := c.MustAdd("g3", netlist.KindNot, f1.ID)
	l2 := c.MustAdd("L2", netlist.KindLatch, g3.ID)
	l2.Phase = 0.6
	c.MustAdd("out", netlist.KindOutput, l2.ID)
	return c
}

func TestBitSimReusedAcrossRuns(t *testing.T) {
	c := pipeline(t)
	const cycles = 12
	scalarA, wordsA := packedRandom(t, c, cycles, 64)
	bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// First run on different stimulus, then re-run on A: the reused
	// buffers must not leak state between runs.
	_, wordsB := packedRandom(t, c, cycles, 64)
	for cyc := range wordsB {
		for i := range wordsB[cyc] {
			wordsB[cyc][i] = ^wordsB[cyc][i]
		}
	}
	if _, err := bs.Run(wordsB); err != nil {
		t.Fatal(err)
	}
	bt, err := bs.Run(wordsA)
	if err != nil {
		t.Fatal(err)
	}
	compareAllLanes(t, c, 10, cycles, 0, scalarA, bt)
}

// TestNewBitRejectsNonExact: BitSim models only phase-0 flip-flops, so
// a latch or a phase-shifted flip-flop is an error at construction, and
// BitSimExact agrees.
func TestNewBitRejectsNonExact(t *testing.T) {
	withLatch := netlist.New("latch")
	in := withLatch.MustAdd("in", netlist.KindInput)
	l := withLatch.MustAdd("L", netlist.KindLatch, in.ID)
	withLatch.MustAdd("out", netlist.KindOutput, l.ID)

	halfPhase := netlist.New("phase")
	in = halfPhase.MustAdd("in", netlist.KindInput)
	f := halfPhase.MustAdd("F", netlist.KindDFF, in.ID)
	f.Phase = 0.5
	halfPhase.MustAdd("out", netlist.KindOutput, f.ID)

	for _, c := range []*netlist.Circuit{withLatch, halfPhase} {
		if BitSimExact(c) {
			t.Errorf("%s: BitSimExact holds", c.Name)
		}
		if _, err := NewBit(c, BitOptions{Cycles: 4, Lanes: 1}); err == nil {
			t.Errorf("%s: NewBit accepted a circuit BitSim cannot model", c.Name)
		}
	}
}

func TestEventSimulatorReusedAcrossRuns(t *testing.T) {
	c := latchMix(t)
	lib := lib31(t)
	const cycles = 12
	s, err := New(c, lib, Options{T: 10000, Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	stimA := RandomStimulus(c, cycles, 5)
	stimB := RandomStimulus(c, cycles, 6)
	trA, err := s.Run(stimA)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot A's trace before the buffers are reused.
	snap := make(Trace, len(trA))
	for name, row := range trA {
		snap[name] = append([]bool(nil), row...)
	}
	if _, err := s.Run(stimB); err != nil {
		t.Fatal(err)
	}
	trA2, err := s.Run(stimA)
	if err != nil {
		t.Fatal(err)
	}
	if mm := CompareTraces(snap, trA2, 0); len(mm) != 0 {
		t.Fatalf("reused simulator diverges on identical stimulus: %v", mm[0])
	}
}

func TestEventCoreAllocFree(t *testing.T) {
	c := latchMix(t)
	lib := lib31(t)
	const cycles = 16
	s, err := New(c, lib, Options{T: 10000, Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	stim := RandomStimulus(c, cycles, 9)
	if _, err := s.Run(stim); err != nil { // warm the buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Run(stim); err != nil {
			t.Error(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("steady-state event-engine Run allocates %.1f objects, want 0", avg)
	}
}

func TestBitSimAllocFree(t *testing.T) {
	c := pipeline(t)
	const cycles = 16
	bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, words := packedRandom(t, c, cycles, 64)
	if _, err := bs.Run(words); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := bs.Run(words); err != nil {
			t.Error(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("steady-state BitSim Run allocates %.1f objects, want 0", avg)
	}
}

// TestGateTableMatchesEvalGate holds the word evaluator to the scalar
// engine's evalGate lane by lane, at two words per value, for every
// kind with zero to three fanins (a kind that is not a gate evaluates
// to zero; a gate without fanins folds nothing).
func TestGateTableMatchesEvalGate(t *testing.T) {
	const k, inputs = 2, 3
	c := &netlist.Circuit{}
	for i := 0; i < inputs; i++ {
		c.Nodes = append(c.Nodes, &netlist.Node{ID: netlist.NodeID(i), Kind: netlist.KindInput})
	}
	for kind := netlist.KindInvalid; kind <= netlist.KindConst1; kind++ {
		for n := 0; n <= inputs; n++ {
			if n == 0 && (kind == netlist.KindBuf || kind == netlist.KindNot) {
				continue // the scalar engine indexes their one fanin
			}
			fanins := []netlist.NodeID{2, 0, 1}[:n]
			c.Nodes = append(c.Nodes, &netlist.Node{ID: netlist.NodeID(len(c.Nodes)), Kind: kind, Fanins: fanins})
		}
	}
	g := newGateTable(c)
	vals := make([]uint64, len(c.Nodes)*k)
	for i := range vals[:inputs*k] {
		vals[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	dst := make([]uint64, k)
	bools := make([]bool, len(c.Nodes))
	for _, n := range c.Nodes[inputs:] {
		g.eval(int32(n.ID), vals, k, dst)
		for l := 0; l < 64*k; l++ {
			for i := 0; i < inputs; i++ {
				bools[i] = vals[i*k+l/64]>>(l%64)&1 == 1
			}
			if got, want := dst[l/64]>>(l%64)&1 == 1, evalGate(n, bools); got != want {
				t.Fatalf("%v with %d fanins, lane %d: got %v, want %v", n.Kind, len(n.Fanins), l, got, want)
			}
		}
	}
}
