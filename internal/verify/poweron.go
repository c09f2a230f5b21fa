package verify

import "virtualsync/internal/netlist"

// Power-on flushing. Relocating registers legitimately changes a
// circuit's power-on state, so the differential check compares traces
// only from the warm-up cycle on, after a zero-input reset prefix
// (sim.ResetStimulus). That comparison is well-defined only when the
// original circuit's registers no longer depend on their power-on
// values by then. Generated cases guarantee it — every feedback ring is
// ANDed with an input-driven mask — but a shrunk case can lose the mask
// (input constification) and keep a free-running ring, such as a DFF
// toggling through a NAND, whose trace is decided by the power-on value
// alone. unflushed detects such cases by three-valued simulation:
// registers start unknown, inputs follow the stimulus, and any register
// still unknown at the warm-up cycle keeps power-on state the stimulus
// cannot flush.

// tern is a three-valued logic level.
type tern uint8

const (
	t0 tern = iota
	t1
	tX
)

// evalTern evaluates a combinational gate over three-valued fanins: a
// controlling value (0 for AND, 1 for OR) decides the output even when
// other fanins are unknown; otherwise any unknown fanin makes it unknown.
func evalTern(n *netlist.Node, val []tern) tern {
	inv := func(v tern) tern {
		if v == tX {
			return tX
		}
		return 1 - v
	}
	switch n.Kind {
	case netlist.KindBuf, netlist.KindOutput:
		return val[n.Fanins[0]]
	case netlist.KindNot:
		return inv(val[n.Fanins[0]])
	case netlist.KindAnd, netlist.KindNand, netlist.KindOr, netlist.KindNor:
		ctrl := t0 // AND/NAND: any 0 decides
		if n.Kind == netlist.KindOr || n.Kind == netlist.KindNor {
			ctrl = t1
		}
		out := 1 - ctrl
		for _, f := range n.Fanins {
			if val[f] == ctrl {
				out = ctrl
				break
			}
			if val[f] == tX {
				out = tX
			}
		}
		if n.Kind == netlist.KindNand || n.Kind == netlist.KindNor {
			out = inv(out)
		}
		return out
	case netlist.KindXor, netlist.KindXnor:
		out := t0
		for _, f := range n.Fanins {
			if val[f] == tX {
				return tX
			}
			out ^= val[f]
		}
		if n.Kind == netlist.KindXnor {
			out = inv(out)
		}
		return out
	case netlist.KindConst1:
		return t1
	}
	return t0
}

// unflushed simulates c's registers from an unknown power-on state under
// stim (one vector per cycle, in c.Inputs() order) and returns the first
// register whose value is still unknown after warmup cycles, or nil when
// every register has been flushed by then.
func unflushed(c *netlist.Circuit, stim [][]bool, warmup int) *netlist.Node {
	order, err := c.TopoOrder()
	if err != nil {
		return nil // the pipeline rejects combinational cycles itself
	}
	val := make([]tern, len(c.Nodes))
	var regs []*netlist.Node
	for _, n := range order {
		if n.Kind.IsSequential() {
			val[n.ID] = tX
			regs = append(regs, n)
		}
	}
	inputs := c.Inputs()
	next := make([]tern, len(regs))
	for cyc := 0; cyc < warmup && cyc < len(stim); cyc++ {
		for i, in := range inputs {
			val[in.ID] = t0
			if stim[cyc][i] {
				val[in.ID] = t1
			}
		}
		for _, n := range order {
			if n.Kind.IsCombinational() || n.Kind.IsConst() || n.Kind == netlist.KindOutput {
				val[n.ID] = evalTern(n, val)
			}
		}
		for i, r := range regs {
			next[i] = val[r.Fanins[0]]
		}
		for i, r := range regs {
			val[r.ID] = next[i]
		}
	}
	for _, r := range regs {
		if val[r.ID] == tX {
			return r
		}
	}
	return nil
}
