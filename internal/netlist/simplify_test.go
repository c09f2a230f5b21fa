package netlist

import "testing"

// chainCircuit builds in -> g1 -> g2(and with in) -> f1 -> out plus a
// dangling gate never reaching an output.
func chainCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New("simplify")
	in := c.MustAdd("in", KindInput)
	g1 := c.MustAdd("g1", KindNot, in.ID)
	g2 := c.MustAdd("g2", KindAnd, g1.ID, in.ID)
	f1 := c.MustAdd("f1", KindDFF, g2.ID)
	c.MustAdd("out", KindOutput, f1.ID)
	c.MustAdd("dangling", KindNot, g1.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollapse(t *testing.T) {
	c := chainCircuit(t)
	g2 := c.ByName("g2")
	if err := c.Collapse(g2.ID, 0); err != nil {
		t.Fatal(err)
	}
	if c.ByName("g2") != nil {
		t.Fatal("g2 still present after collapse")
	}
	f1 := c.ByName("f1")
	if got := f1.Fanins[0]; got != c.ByName("g1").ID {
		t.Fatalf("f1 fanin = %d, want g1", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	// Collapsing an output or a bad pin must fail.
	if err := c.Collapse(c.ByName("out").ID, 0); err == nil {
		t.Fatal("collapse of primary output succeeded")
	}
	if err := c.Collapse(f1.ID, 3); err == nil {
		t.Fatal("collapse with out-of-range pin succeeded")
	}
	if err := c.Collapse(NodeID(999), 0); err == nil {
		t.Fatal("collapse of missing node succeeded")
	}
	ring := c.MustAdd("ring", KindDFF, c.ByName("in").ID)
	ring.Fanins[0] = ring.ID
	if err := c.Collapse(ring.ID, 0); err == nil {
		t.Fatal("collapse of a node onto itself succeeded")
	}
}

// TestCollapseFlipFlopChain: a chain of flip-flops collapses link by
// link in any order, and every order leaves the readers on the chain's
// driver.
func TestCollapseFlipFlopChain(t *testing.T) {
	for _, order := range [][]string{{"f1", "f2", "f3"}, {"f3", "f2", "f1"}, {"f2", "f3", "f1"}} {
		c := New("chain")
		in := c.MustAdd("in", KindInput)
		g := c.MustAdd("g", KindNot, in.ID)
		f1 := c.MustAdd("f1", KindDFF, g.ID)
		f2 := c.MustAdd("f2", KindDFF, f1.ID)
		f3 := c.MustAdd("f3", KindDFF, f2.ID)
		h := c.MustAdd("h", KindAnd, f3.ID, f1.ID)
		out := c.MustAdd("out", KindOutput, f3.ID)
		for _, name := range order {
			if err := c.Collapse(c.ByName(name).ID, 0); err != nil {
				t.Fatalf("order %v: collapse %s: %v", order, name, err)
			}
		}
		if h.Fanins[0] != g.ID || h.Fanins[1] != g.ID || out.Fanins[0] != g.ID {
			t.Fatalf("order %v: readers %v and %v, want both on g", order, h.Fanins, out.Fanins)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

func TestConstify(t *testing.T) {
	c := chainCircuit(t)
	g1 := c.ByName("g1")
	if err := c.Constify(g1.ID, true); err != nil {
		t.Fatal(err)
	}
	if c.ByName("g1") != nil {
		t.Fatal("g1 still present")
	}
	konst := c.ByName("const1")
	if konst == nil || konst.Kind != KindConst1 {
		t.Fatal("no const1 driver created")
	}
	if got := c.ByName("g2").Fanins[0]; got != konst.ID {
		t.Fatalf("g2 fanin = %d, want const1", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	// A second constify of the same polarity reuses the driver.
	if err := c.Constify(c.ByName("dangling").ID, true); err != nil {
		t.Fatal(err)
	}
	n := 0
	c.Live(func(nd *Node) {
		if nd.Kind == KindConst1 {
			n++
		}
	})
	if n != 1 {
		t.Fatalf("got %d const1 drivers, want 1", n)
	}
}

func TestPruneDead(t *testing.T) {
	c := chainCircuit(t)
	if removed := c.PruneDead(); removed != 1 {
		t.Fatalf("removed %d nodes, want 1 (dangling)", removed)
	}
	if c.ByName("dangling") != nil {
		t.Fatal("dangling gate survived pruning")
	}
	if c.ByName("in") == nil {
		t.Fatal("primary input removed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Second prune is a no-op.
	if removed := c.PruneDead(); removed != 0 {
		t.Fatalf("second prune removed %d nodes", removed)
	}
}
