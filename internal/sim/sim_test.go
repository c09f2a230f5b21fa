package sim

import (
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

func lib31(t testing.TB) *celllib.Library {
	t.Helper()
	l := celllib.Uniform(3,
		celllib.SeqTiming{Tcq: 1, Tsu: 1, Th: 0.5, Area: 4},
		celllib.SeqTiming{Tcq: 1, Tdq: 0.5, Tsu: 1, Th: 0.5, Area: 3})
	return l
}

// pipeline: in -> F1 -> NOT -> F2 -> out.
func pipeline(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("p")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	g := c.MustAdd("g", netlist.KindNot, f1.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, g.ID)
	c.MustAdd("out", netlist.KindOutput, f2.ID)
	return c
}

func TestPipelineLatency(t *testing.T) {
	c := pipeline(t)
	lib := lib31(t)
	s, err := New(c, lib, Options{T: 10, Cycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	stim := [][]bool{{true}, {false}, {true}, {true}, {false}, {false}, {true}, {false}}
	tr, err := s.Run(stim)
	if err != nil {
		t.Fatal(err)
	}
	// F1 samples in at each edge: F1 trace[k] = stim[k-1] (stim applied
	// just after edge k). Cycle 0 edge samples the initial 0.
	want1 := []bool{false, true, false, true, true, false, false, true}
	for k, w := range want1 {
		if tr["F1"][k] != w {
			t.Fatalf("F1[%d] = %v, want %v (trace %v)", k, tr["F1"][k], w, tr["F1"])
		}
	}
	// F2 samples NOT(F1 one cycle earlier): F2[k] = !F1[k-1].
	for k := 1; k < 8; k++ {
		if tr["F2"][k] != !tr["F1"][k-1] {
			t.Fatalf("F2[%d] = %v, want %v", k, tr["F2"][k], !tr["F1"][k-1])
		}
	}
	// out shows F2's value at end of cycle: out[k] = F2[k].
	for k := 0; k < 8; k++ {
		if tr["out"][k] != tr["F2"][k] {
			t.Fatalf("out[%d] = %v, want %v", k, tr["out"][k], tr["F2"][k])
		}
	}
}

func TestGateEvaluation(t *testing.T) {
	vals := []bool{true, false, true}
	mk := func(kind netlist.Kind, fanins ...netlist.NodeID) *netlist.Node {
		return &netlist.Node{Kind: kind, Fanins: fanins}
	}
	cases := []struct {
		n    *netlist.Node
		want bool
	}{
		{mk(netlist.KindBuf, 0), true},
		{mk(netlist.KindNot, 0), false},
		{mk(netlist.KindAnd, 0, 2), true},
		{mk(netlist.KindAnd, 0, 1), false},
		{mk(netlist.KindNand, 0, 1), true},
		{mk(netlist.KindOr, 1, 1), false},
		{mk(netlist.KindOr, 0, 1), true},
		{mk(netlist.KindNor, 1, 1), true},
		{mk(netlist.KindXor, 0, 2), false},
		{mk(netlist.KindXor, 0, 1), true},
		{mk(netlist.KindXnor, 0, 2), true},
	}
	for i, tc := range cases {
		if got := evalGate(tc.n, vals); got != tc.want {
			t.Errorf("case %d (%v): got %v", i, tc.n.Kind, got)
		}
	}
}

func TestXorFeedbackParity(t *testing.T) {
	// F2(k+1) = XOR(F1(k), F2(k)): running parity of the input stream.
	lib := lib31(t)
	c := netlist.New("par")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	x := c.MustAdd("x", netlist.KindXor, f1.ID, f1.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, x.ID)
	x.Fanins[1] = f2.ID
	c.MustAdd("out", netlist.KindOutput, f2.ID)

	s, err := New(c, lib, Options{T: 10, Cycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	stim := RandomStimulus(c, 10, 7)
	tr, err := s.Run(stim)
	if err != nil {
		t.Fatal(err)
	}
	parity := false
	for k := 1; k < 10; k++ {
		parity = parity != tr["F1"][k-1]
		if tr["F2"][k] != parity {
			t.Fatalf("F2[%d] = %v, want parity %v", k, tr["F2"][k], parity)
		}
	}
}

func TestLatchTransparency(t *testing.T) {
	// in -> L (phase 0, duty 0.5) -> out. With T=10: L closed during
	// [0,5), open [5,10). Input changes at cycle start are only visible
	// at the output after the latch opens.
	lib := lib31(t)
	c := netlist.New("lt")
	in := c.MustAdd("in", netlist.KindInput)
	l := c.MustAdd("L", netlist.KindLatch, in.ID)
	c.MustAdd("out", netlist.KindOutput, l.ID)
	s, err := New(c, lib, Options{T: 10, Cycles: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run([][]bool{{true}, {false}, {true}, {true}})
	if err != nil {
		t.Fatal(err)
	}
	// At each opening the latch passes the value applied at cycle start.
	want := []bool{true, false, true, true}
	for k, w := range want {
		if tr["L"][k] != w {
			t.Fatalf("L[%d] = %v, want %v (trace %v)", k, tr["L"][k], w, tr["L"])
		}
	}
	// out at end of cycle k equals the input of cycle k (transparent).
	for k, w := range want {
		if tr["out"][k] != w {
			t.Fatalf("out[%d] = %v, want %v", k, tr["out"][k], w)
		}
	}
}

func TestCompareTraces(t *testing.T) {
	a := Trace{"x": {true, false, true}, "y": {false, false}}
	b := Trace{"x": {true, true, true}, "z": {true}}
	ms := CompareTraces(a, b, 0)
	if len(ms) != 1 || ms[0].Name != "x" || ms[0].Cycle != 1 {
		t.Fatalf("mismatches = %v", ms)
	}
	if ms := CompareTraces(a, b, 2); len(ms) != 0 {
		t.Fatalf("warmup should skip the mismatch: %v", ms)
	}
	if s := ms; s != nil {
		_ = s
	}
}

func TestVerifyEquivalenceIdentical(t *testing.T) {
	lib := lib31(t)
	a := pipeline(t)
	b := pipeline(t)
	ms, err := VerifyEquivalenceStim(a, b, lib, 10, 10, 2, RandomStimulus(a, 20, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("identical circuits mismatch: %v", ms)
	}
}

func TestVerifyEquivalenceCatchesDifference(t *testing.T) {
	lib := lib31(t)
	a := pipeline(t)
	b := pipeline(t)
	// Sabotage b: NOT becomes BUF.
	b.ByName("g").Kind = netlist.KindBuf
	ms, err := VerifyEquivalenceStim(a, b, lib, 10, 10, 2, RandomStimulus(a, 20, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("sabotaged circuit not caught")
	}
}

func TestVerifyEquivalenceInputMismatch(t *testing.T) {
	lib := lib31(t)
	a := pipeline(t)
	b := netlist.New("other")
	b.MustAdd("zzz", netlist.KindInput)
	if _, err := VerifyEquivalenceStim(a, b, lib, 10, 10, 0, RandomStimulus(a, 5, 1)); err == nil {
		t.Fatal("input mismatch accepted")
	}
}

func TestSimulatorValidation(t *testing.T) {
	lib := lib31(t)
	c := pipeline(t)
	if _, err := New(c, lib, Options{T: 0, Cycles: 5}); err == nil {
		t.Fatal("zero period accepted")
	}
	s, _ := New(c, lib, Options{T: 10, Cycles: 5})
	if _, err := s.Run([][]bool{{true}}); err == nil {
		t.Fatal("short stimulus accepted")
	}
	if _, err := s.Run([][]bool{{}, {}, {}, {}, {}}); err == nil {
		t.Fatal("wrong-width stimulus accepted")
	}
}
