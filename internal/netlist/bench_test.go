package netlist

import (
	"strings"
	"testing"
	"testing/quick"
)

const sample = `
# tiny pipeline
INPUT(a)
INPUT(b)
OUTPUT(z)
f1 = DFF(a)
g1 = NAND(f1, b)
g2 = NOT(g1) [NOT:2]
l1 = LATCH(g2) @0.5
z  = BUF(l1)
`

func TestParseSample(t *testing.T) {
	c, err := ParseString(sample, "tiny")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	st := c.Stats()
	if st.Inputs != 2 || st.Outputs != 1 || st.Gates != 3 || st.DFFs != 1 || st.Latches != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	g2 := c.ByName("g2")
	if g2.Cell != "NOT" || g2.Drive != 2 {
		t.Fatalf("g2 cell binding = %q:%d", g2.Cell, g2.Drive)
	}
	l1 := c.ByName("l1")
	if l1.Phase != 0.5 {
		t.Fatalf("l1 phase = %v", l1.Phase)
	}
	po := c.Outputs()[0]
	if c.Node(po.Fanins[0]).Name != "z" {
		t.Fatalf("output fed by %q", c.Node(po.Fanins[0]).Name)
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = NOT(x)
x = BUF(a)
`
	c, err := ParseString(src, "fwd")
	if err != nil {
		t.Fatalf("Parse with forward ref: %v", err)
	}
	y := c.ByName("y")
	if c.Node(y.Fanins[0]).Name != "x" {
		t.Fatal("forward reference not resolved")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undefined net", "INPUT(a)\nz = NOT(q)\n"},
		{"dup name", "INPUT(a)\nINPUT(a)\n"},
		{"bad kind", "INPUT(a)\nz = FROB(a)\n"},
		{"bad fanin count", "INPUT(a)\nz = AND(a)\n"},
		{"input as assignment", "INPUT(a)\nz = INPUT(a)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(zz)\n"},
		{"no assignment", "INPUT(a)\nfoo bar\n"},
		{"bad phase", "INPUT(a)\nz = DFF(a) @x\n"},
		{"NaN phase", "INPUT(a)\nz = DFF(a) @NaN\n"},
		{"infinite phase", "INPUT(a)\nz = LATCH(a) @+Inf\n"},
		{"phase of one period", "INPUT(a)\nz = DFF(a) @1\n"},
		{"negative phase", "INPUT(a)\nz = LATCH(a) @-0.25\n"},
		{"bad drive", "INPUT(a)\nz = NOT(a) [NOT:q]\n"},
		{"empty fanin", "INPUT(a)\nz = AND(a,)\n"},
		{"malformed input", "INPUT a\n"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.src, "x"); err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.src)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	c, err := ParseString(sample, "tiny")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := c.String()
	c2, err := ParseString(text, "tiny2")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if c.Stats() != c2.Stats() {
		t.Fatalf("round-trip stats differ: %+v vs %+v", c.Stats(), c2.Stats())
	}
	// Every live node except the implicit $po nodes must survive with the
	// same kind and fanin names.
	c.Live(func(n *Node) {
		if strings.HasSuffix(n.Name, outputSuffix) {
			return
		}
		m := c2.ByName(n.Name)
		if m == nil {
			t.Fatalf("node %q missing after round trip", n.Name)
		}
		if m.Kind != n.Kind || m.Drive != n.Drive || m.Phase != n.Phase {
			t.Fatalf("node %q changed: %v/%d/%g vs %v/%d/%g",
				n.Name, n.Kind, n.Drive, n.Phase, m.Kind, m.Drive, m.Phase)
		}
		for i, f := range n.Fanins {
			if c.Node(f).Name != c2.Node(m.Fanins[i]).Name {
				t.Fatalf("node %q fanin %d differs", n.Name, i)
			}
		}
	})
}

func TestWriteCyclicFallsBack(t *testing.T) {
	c := New("loop")
	a := c.MustAdd("a", KindInput)
	g1 := c.MustAdd("g1", KindAnd, a.ID, a.ID)
	g2 := c.MustAdd("g2", KindNot, g1.ID)
	g1.Fanins[1] = g2.ID
	if s := c.String(); !strings.Contains(s, "g1") || !strings.Contains(s, "g2") {
		t.Fatalf("cyclic circuit not written: %s", s)
	}
}

// propertyCircuit builds a random DAG-with-registers circuit from quick's
// random data, used to property-test clone/round-trip invariants.
func propertyCircuit(seedBytes []byte) *Circuit {
	c := New("prop")
	ids := []NodeID{
		c.MustAdd("i0", KindInput).ID,
		c.MustAdd("i1", KindInput).ID,
	}
	kinds := []Kind{KindBuf, KindNot, KindAnd, KindNand, KindOr, KindNor, KindXor, KindXnor, KindDFF, KindLatch}
	for i, b := range seedBytes {
		k := kinds[int(b)%len(kinds)]
		f1 := ids[int(b/16)%len(ids)]
		name := "n" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		var n *Node
		if k.MaxFanins() == 1 {
			n = c.MustAdd(name, k, f1)
		} else {
			f2 := ids[(int(b)+i)%len(ids)]
			n = c.MustAdd(name, k, f1, f2)
		}
		ids = append(ids, n.ID)
	}
	c.MustAdd("z", KindOutput, ids[len(ids)-1])
	return c
}

func TestPropertyRoundTripPreservesStats(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 200 {
			seed = seed[:200]
		}
		c := propertyCircuit(seed)
		if err := c.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		c2, err := ParseString(c.String(), "prop2")
		if err != nil {
			t.Logf("reparse: %v", err)
			return false
		}
		return c.Stats() == c2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCloneEqualsOriginal(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 150 {
			seed = seed[:150]
		}
		c := propertyCircuit(seed)
		cp := c.Clone()
		if cp.Stats() != c.Stats() || cp.Len() != c.Len() {
			return false
		}
		ok := true
		c.Live(func(n *Node) {
			m := cp.Node(n.ID)
			if m == nil || m.Name != n.Name || m.Kind != n.Kind || len(m.Fanins) != len(n.Fanins) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 150 {
			seed = seed[:150]
		}
		c := propertyCircuit(seed)
		order, err := c.TopoOrder()
		if err != nil {
			return false // generator never builds comb loops
		}
		pos := make(map[NodeID]int, len(order))
		for i, n := range order {
			pos[n.ID] = i
		}
		ok := true
		c.Live(func(n *Node) {
			if n.Kind.IsSequential() {
				return
			}
			for _, f := range n.Fanins {
				if pos[f] > pos[n.ID] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
