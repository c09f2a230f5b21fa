package netlist

// This file provides the structural simplification primitives used by the
// counterexample shrinker (internal/gen, internal/verify): collapsing a
// node onto one of its fanins, replacing a node by a constant, and
// garbage-collecting logic with no path to a primary output. Each
// operation preserves structural validity (Validate) when it succeeds.

import "fmt"

// Collapse rewires every fanout of node id to read from its fanin at the
// given pin and removes the node. The node may have any number of fanins
// (the others are simply dropped). Collapsing a primary output, a node
// with no fanins or a node onto itself is an error.
func (c *Circuit) Collapse(id NodeID, pin int) error {
	n := c.Node(id)
	if n == nil {
		return fmt.Errorf("netlist: collapse: no node %d", id)
	}
	if n.Kind == KindOutput {
		return fmt.Errorf("netlist: collapse: %q is a primary output", n.Name)
	}
	if pin < 0 || pin >= len(n.Fanins) {
		return fmt.Errorf("netlist: collapse: node %q has no pin %d", n.Name, pin)
	}
	src := n.Fanins[pin]
	if src == id {
		return fmt.Errorf("netlist: collapse: node %q feeds itself on pin %d", n.Name, pin)
	}
	for _, m := range c.Nodes {
		if m.dead || m.ID == id {
			continue
		}
		for i, f := range m.Fanins {
			if f == id {
				m.Fanins[i] = src
			}
		}
	}
	return c.Remove(id)
}

// Constify replaces node id by a constant driver of the given value: all
// fanouts are rewired to a (possibly new) CONST0/CONST1 node and id is
// removed. Primary outputs cannot be constified.
func (c *Circuit) Constify(id NodeID, value bool) error {
	n := c.Node(id)
	if n == nil {
		return fmt.Errorf("netlist: constify: no node %d", id)
	}
	if n.Kind == KindOutput {
		return fmt.Errorf("netlist: constify: %q is a primary output", n.Name)
	}
	kind := KindConst0
	if value {
		kind = KindConst1
	}
	// Reuse an existing constant driver if the circuit has one.
	var konst NodeID = InvalidID
	for _, m := range c.Nodes {
		if !m.dead && m.Kind == kind && m.ID != id {
			konst = m.ID
			break
		}
	}
	if konst == InvalidID {
		name := "const0"
		if value {
			name = "const1"
		}
		for i := 0; ; i++ {
			candidate := name
			if i > 0 {
				candidate = fmt.Sprintf("%s_%d", name, i)
			}
			if _, taken := c.byName[candidate]; !taken {
				name = candidate
				break
			}
		}
		k, err := c.Add(name, kind)
		if err != nil {
			return err
		}
		konst = k.ID
	}
	for _, m := range c.Nodes {
		if m.dead || m.ID == id {
			continue
		}
		for i, f := range m.Fanins {
			if f == id {
				m.Fanins[i] = konst
			}
		}
	}
	return c.Remove(id)
}

// PruneDead removes every node without a path to a primary output
// (through any mix of combinational and sequential elements). Primary
// inputs are kept even when unread, so the input interface — and hence
// any recorded stimulus — stays stable. It returns the number of nodes
// removed.
func (c *Circuit) PruneDead() int {
	live := make([]bool, len(c.Nodes))
	var mark func(id NodeID)
	mark = func(id NodeID) {
		if live[id] {
			return
		}
		live[id] = true
		for _, f := range c.Nodes[id].Fanins {
			if !c.Nodes[f].dead {
				mark(f)
			}
		}
	}
	for _, n := range c.Nodes {
		if !n.dead && n.Kind == KindOutput {
			mark(n.ID)
		}
	}
	removed := 0
	// Repeated passes are unnecessary: liveness is closed under fanin, so
	// every unmarked node can go at once (in reverse so readers go first).
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		n := c.Nodes[i]
		if n.dead || live[n.ID] || n.Kind == KindInput || n.Kind == KindOutput {
			continue
		}
		n.dead = true
		delete(c.byName, n.Name)
		removed++
	}
	return removed
}
