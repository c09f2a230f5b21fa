package netlist

import "sort"

// FanoutCone returns the combinational fan-out closure of the seed nodes:
// the seeds themselves plus every live node reachable downstream without
// passing through a sequential element. Sequential elements and output
// ports reached by the walk are included (their D-pin timing depends on
// the cone) but not expanded, since their outputs launch on the clock and
// are unaffected. The result is sorted by NodeID.
func FanoutCone(c *Circuit, seeds []NodeID) []NodeID {
	fanouts := c.Fanouts()
	seedSet := make(map[NodeID]bool, len(seeds))
	in := make(map[NodeID]bool, len(seeds))
	var stack []NodeID
	for _, id := range seeds {
		if c.Node(id) == nil || in[id] {
			continue
		}
		seedSet[id] = true
		in[id] = true
		stack = append(stack, id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n := c.Node(id); n.Kind.IsSequential() && !seedSet[id] {
			continue // launch time is clock-determined; cone stops here
		}
		for _, reader := range fanouts[id] {
			if !in[reader] {
				in[reader] = true
				stack = append(stack, reader)
			}
		}
	}
	return setToSorted(in)
}

func setToSorted(in map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(in))
	for id := range in {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiffEdits computes a structural diff between two circuits expressed as
// an edit list: applying the returned edits to base (or a clone of it)
// reproduces cur's structure. Nodes are matched by name. The second
// result reports whether the difference is expressible with the supported
// edit operations — it is false when nodes were added or deleted, a
// node's kind or fanin count changed, or either circuit holds dead nodes
// matched ambiguously. An inexpressible diff means the circuits are too
// far apart for the incremental path; callers fall back to a cold run.
func DiffEdits(base, cur *Circuit) ([]Edit, bool) {
	var edits []Edit
	// Every live node of cur must exist in base with the same kind/arity,
	// and vice versa: additions or deletions are not expressible.
	nBase, nCur := 0, 0
	base.Live(func(*Node) { nBase++ })
	cur.Live(func(*Node) { nCur++ })
	if nBase != nCur {
		return nil, false
	}
	ok := true
	cur.Live(func(cn *Node) {
		if !ok {
			return
		}
		bn := base.ByName(cn.Name)
		if bn == nil || bn.Kind != cn.Kind || len(bn.Fanins) != len(cn.Fanins) {
			ok = false
			return
		}
		if bn.Drive != cn.Drive {
			edits = append(edits, Edit{Op: EditResize, Node: cn.Name, Drive: cn.Drive})
		}
		if bn.Cell != cn.Cell {
			edits = append(edits, Edit{Op: EditSwapCell, Node: cn.Name, Cell: cn.Cell})
		}
		for pin := range cn.Fanins {
			bd := base.Node(bn.Fanins[pin])
			cd := cur.Node(cn.Fanins[pin])
			if bd == nil || cd == nil {
				ok = false
				return
			}
			if bd.Name != cd.Name {
				edits = append(edits, Edit{Op: EditRewire, Node: cn.Name, Pin: pin, Driver: cd.Name})
			}
		}
	})
	if !ok {
		return nil, false
	}
	return edits, true
}
