package netlist

import (
	"strings"
	"testing"
)

func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	c := New("small")
	a := c.MustAdd("a", KindInput)
	b := c.MustAdd("b", KindInput)
	f1 := c.MustAdd("f1", KindDFF, a.ID)
	g1 := c.MustAdd("g1", KindAnd, f1.ID, b.ID)
	g2 := c.MustAdd("g2", KindNot, g1.ID)
	f2 := c.MustAdd("f2", KindDFF, g2.ID)
	c.MustAdd("z", KindOutput, f2.ID)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c
}

func TestAddAndLookup(t *testing.T) {
	c := buildSmall(t)
	if got := c.ByName("g1"); got == nil || got.Kind != KindAnd {
		t.Fatalf("ByName(g1) = %v", got)
	}
	if got := c.ByName("nope"); got != nil {
		t.Fatalf("ByName(nope) = %v, want nil", got)
	}
	if c.Len() != 7 {
		t.Fatalf("Len = %d, want 7", c.Len())
	}
}

func TestAddErrors(t *testing.T) {
	c := buildSmall(t)
	if _, err := c.Add("g1", KindAnd); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := c.Add("", KindAnd); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Add("x", KindNot, NodeID(999)); err == nil {
		t.Fatal("invalid fanin accepted")
	}
}

func TestRemoveRequiresRewire(t *testing.T) {
	c := buildSmall(t)
	g1 := c.ByName("g1")
	if err := c.Remove(g1.ID); err == nil {
		t.Fatal("Remove with live fanouts should fail")
	}
	// Bypass g2 (single-fanin) then remove it.
	g2 := c.ByName("g2")
	if err := c.Bypass(g2.ID); err != nil {
		t.Fatalf("Bypass: %v", err)
	}
	if err := c.Remove(g2.ID); err != nil {
		t.Fatalf("Remove after bypass: %v", err)
	}
	if c.ByName("g2") != nil {
		t.Fatal("g2 still reachable by name")
	}
	f2 := c.ByName("f2")
	if f2.Fanins[0] != g1.ID {
		t.Fatalf("f2 fanin = %d, want g1 %d", f2.Fanins[0], g1.ID)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after remove: %v", err)
	}
}

func TestBypassErrors(t *testing.T) {
	c := buildSmall(t)
	g1 := c.ByName("g1") // 2 fanins
	if err := c.Bypass(g1.ID); err == nil {
		t.Fatal("Bypass of 2-fanin node should fail")
	}
	if err := c.Bypass(NodeID(999)); err == nil {
		t.Fatal("Bypass of missing node should fail")
	}
}

func TestFanouts(t *testing.T) {
	c := buildSmall(t)
	fo := c.Fanouts()
	f1 := c.ByName("f1")
	g1 := c.ByName("g1")
	if len(fo[f1.ID]) != 1 || fo[f1.ID][0] != g1.ID {
		t.Fatalf("fanouts of f1 = %v", fo[f1.ID])
	}
}

func TestStats(t *testing.T) {
	c := buildSmall(t)
	s := c.Stats()
	want := Stats{Inputs: 2, Outputs: 1, Gates: 2, DFFs: 2, MaxFanin: 2}
	if s != want {
		t.Fatalf("Stats = %+v, want %+v", s, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildSmall(t)
	cp := c.Clone()
	g1 := cp.ByName("g1")
	g1.Fanins[0] = cp.ByName("b").ID
	if c.ByName("g1").Fanins[0] == c.ByName("b").ID {
		t.Fatal("clone shares fanin storage with original")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	c := buildSmall(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	g1 := c.ByName("g1")
	g2 := c.ByName("g2")
	if pos[g1.ID] > pos[g2.ID] {
		t.Fatal("g1 should precede g2")
	}
	// DFF f2's fanin edge must NOT force ordering: f2 may appear anywhere.
	if len(order) != c.Len() {
		t.Fatalf("order covers %d of %d nodes", len(order), c.Len())
	}
}

func TestTopoOrderDetectsCombLoop(t *testing.T) {
	c := New("loop")
	a := c.MustAdd("a", KindInput)
	g1 := c.MustAdd("g1", KindAnd, a.ID, a.ID) // placeholder, rewired below
	g2 := c.MustAdd("g2", KindNot, g1.ID)
	g1.Fanins[1] = g2.ID // combinational feedback
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("TopoOrder should detect combinational cycle")
	}
}

func TestCombLoopsCutByDFF(t *testing.T) {
	c := New("seqloop")
	a := c.MustAdd("a", KindInput)
	g1 := c.MustAdd("g1", KindAnd, a.ID, a.ID)
	f := c.MustAdd("f", KindDFF, g1.ID)
	g1.Fanins[1] = f.ID // loop through a DFF: fine
	if _, err := c.TopoOrder(); err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
}

func TestSelfLoopDetected(t *testing.T) {
	c := New("self")
	a := c.MustAdd("a", KindInput)
	g := c.MustAdd("g", KindOr, a.ID, a.ID)
	g.Fanins[1] = g.ID
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("TopoOrder accepted a self-loop on g")
	}
}

func TestValidateCatchesBadFaninCount(t *testing.T) {
	c := New("bad")
	a := c.MustAdd("a", KindInput)
	g := c.MustAdd("g", KindAnd, a.ID, a.ID)
	g.Fanins = g.Fanins[:1]
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject 1-fanin AND")
	}
}

func TestValidateCatchesReadFromOutput(t *testing.T) {
	c := New("bad2")
	a := c.MustAdd("a", KindInput)
	o := c.MustAdd("o", KindOutput, a.ID)
	g := c.MustAdd("g", KindNot, a.ID)
	g.Fanins[0] = o.ID
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject reading from an output port")
	}
}

func TestKindHelpers(t *testing.T) {
	cases := []struct {
		k          Kind
		comb, seq  bool
		port       bool
		minF, maxF int
	}{
		{KindInput, false, false, true, 0, 0},
		{KindOutput, false, false, true, 1, 1},
		{KindBuf, true, false, false, 1, 1},
		{KindNot, true, false, false, 1, 1},
		{KindAnd, true, false, false, 2, -1},
		{KindXor, true, false, false, 2, -1},
		{KindDFF, false, true, false, 1, 1},
		{KindLatch, false, true, false, 1, 1},
		{KindConst1, false, false, false, 0, 0},
	}
	for _, tc := range cases {
		if tc.k.IsCombinational() != tc.comb {
			t.Errorf("%v IsCombinational = %v", tc.k, tc.k.IsCombinational())
		}
		if tc.k.IsSequential() != tc.seq {
			t.Errorf("%v IsSequential = %v", tc.k, tc.k.IsSequential())
		}
		if tc.k.IsPort() != tc.port {
			t.Errorf("%v IsPort = %v", tc.k, tc.k.IsPort())
		}
		if tc.k.MinFanins() != tc.minF || tc.k.MaxFanins() != tc.maxF {
			t.Errorf("%v fanin bounds = [%d,%d], want [%d,%d]",
				tc.k, tc.k.MinFanins(), tc.k.MaxFanins(), tc.minF, tc.maxF)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindInput; k <= KindConst1; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("BOGUS"); ok {
		t.Error("KindFromString(BOGUS) accepted")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind String should embed the number")
	}
}

func TestSelectors(t *testing.T) {
	c := buildSmall(t)
	if n := len(c.Inputs()); n != 2 {
		t.Errorf("Inputs = %d", n)
	}
	if n := len(c.Outputs()); n != 1 {
		t.Errorf("Outputs = %d", n)
	}
	if n := len(c.FlipFlops()); n != 2 {
		t.Errorf("FlipFlops = %d", n)
	}
	if n := len(c.Gates()); n != 2 {
		t.Errorf("Gates = %d", n)
	}
	c.MustAdd("lt", KindLatch, c.ByName("a").ID)
	if n := len(c.Latches()); n != 1 {
		t.Errorf("Latches = %d", n)
	}
}

func TestInsertAtPin(t *testing.T) {
	c := New("pin")
	a := c.MustAdd("a", KindInput)
	g := c.MustAdd("g", KindAnd, a.ID, a.ID) // both pins read a
	buf, err := c.InsertAtPin("b0", KindBuf, g.ID, 1)
	if err != nil {
		t.Fatalf("InsertAtPin: %v", err)
	}
	if g.Fanins[0] != a.ID {
		t.Fatal("pin 0 was disturbed")
	}
	if g.Fanins[1] != buf.ID || buf.Fanins[0] != a.ID {
		t.Fatalf("pin 1 wiring wrong: %v / %v", g.Fanins, buf.Fanins)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertAtPin("b1", KindBuf, g.ID, 5); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if _, err := c.InsertAtPin("b2", KindBuf, NodeID(99), 0); err == nil {
		t.Fatal("missing node accepted")
	}
	if _, err := c.InsertAtPin("b0", KindBuf, g.ID, 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
}
