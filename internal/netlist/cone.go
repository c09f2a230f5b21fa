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
