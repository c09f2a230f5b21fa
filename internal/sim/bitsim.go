package sim

import (
	"fmt"

	"virtualsync/internal/netlist"
)

// BitSim is the levelized, zero-delay, bit-parallel simulation engine
// for synchronous circuits whose sequential elements are all phase-0
// flip-flops (see BitSimExact). It evaluates up to MaxLanes independent
// stimulus vectors at once by packing one lane per bit of a K-word
// uint64 value per net (K chosen from the lane count).
//
// Each cycle every flip-flop captures a snapshot of its data input taken
// before any capture commits — mirroring the event engine, where every
// clock edge's effect is delayed by tcq > 0 — then the cycle's
// primary-input words are applied and combinational logic settles in one
// levelized pass. When every path also settles within the period, these
// semantics coincide with the event engine; lanes.go checks that before
// choosing BitSim. Optimized circuits (latches, phase-shifted flip-flops,
// multi-period logic waves) run on WaveSim, the word-parallel
// continuous-time engine (see wavesim.go), which is exact per lane at
// any period.
type BitSim struct {
	c    *netlist.Circuit
	opts BitOptions
	k    int // words per value

	comb    []*netlist.Node // combinational gates in topo order
	inputs  []*netlist.Node
	outputs []*netlist.Node
	dffs    []*netlist.Node

	words    []uint64   // current value words, k per node
	traceRef [][]uint64 // per-node alias into trace.Words (nil if untraced)
	scratch  []uint64   // flip-flop data words gathered before the captures commit
	trace    BitTrace
}

// BitOptions configures a bit-parallel run.
type BitOptions struct {
	Cycles int // number of clock cycles to simulate
	Lanes  int // meaningful stimulus lanes, 1..MaxLanes
}

// NewBit prepares a bit-parallel simulator. The circuit must be
// structurally valid, free of combinational cycles and BitSimExact: a
// latch or a flip-flop clocked at a non-zero phase is an error.
func NewBit(c *netlist.Circuit, opts BitOptions) (*BitSim, error) {
	if opts.Cycles <= 0 {
		return nil, fmt.Errorf("sim: need positive cycle count")
	}
	if opts.Lanes < 1 || opts.Lanes > MaxLanes {
		return nil, fmt.Errorf("sim: lane count %d outside 1..%d", opts.Lanes, MaxLanes)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	if err := nonExact(c); err != nil {
		return nil, err
	}
	k := laneWords(opts.Lanes)
	s := &BitSim{
		c:       c,
		opts:    opts,
		k:       k,
		inputs:  c.Inputs(),
		outputs: c.Outputs(),
		dffs:    c.FlipFlops(),
		words:   make([]uint64, len(c.Nodes)*k),
		trace:   BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
	}
	for _, n := range order {
		if n.Kind.IsCombinational() {
			s.comb = append(s.comb, n)
		}
	}
	s.scratch = make([]uint64, 0, len(s.dffs)*k)
	s.traceRef = make([][]uint64, len(c.Nodes))
	for _, n := range c.Nodes {
		if !n.Dead() && (n.Kind == netlist.KindDFF || n.Kind == netlist.KindOutput) {
			row := make([]uint64, opts.Cycles*k)
			s.trace.Words[n.Name] = row
			s.traceRef[n.ID] = row
		}
	}
	return s, nil
}

// nonExact returns why c falls outside BitSim's clocking model — a latch
// or a flip-flop at a non-zero phase — or nil.
func nonExact(c *netlist.Circuit) error {
	if ls := c.Latches(); len(ls) > 0 {
		return fmt.Errorf("sim: BitSim cannot run latch %s", ls[0].Name)
	}
	for _, n := range c.FlipFlops() {
		if n.Phase != 0 {
			return fmt.Errorf("sim: BitSim cannot run flip-flop %s at phase %g", n.Name, n.Phase)
		}
	}
	return nil
}

// val returns node id's k-word value slice.
func (s *BitSim) val(id netlist.NodeID) []uint64 {
	return s.words[int(id)*s.k : int(id)*s.k+s.k]
}

// BitSimExact reports whether NewBit accepts c, which makes zero-delay
// semantics coincide with the event engine at any clock period every
// path settles within: the combinational subgraph is acyclic and every
// sequential element is an edge-triggered flip-flop clocked at phase 0.
// Generated original circuits satisfy this; circuits rebuilt by the
// optimizer (phase-shifted flip-flops, latch delay units, multi-period
// logic waves) generally do not, and run on WaveSim instead.
func BitSimExact(c *netlist.Circuit) bool {
	if _, err := c.TopoOrder(); err != nil {
		return false
	}
	return nonExact(c) == nil
}

// Run simulates opts.Cycles cycles with packed stimulus words:
// stim[cycle][i*K : (i+1)*K] carries one bit per lane for the i-th
// primary input (c.Inputs() order), K words per input as produced by
// PackStimulus for the configured lane count. Lanes beyond opts.Lanes
// must be zero — they simulate an all-zero-input circuit and are
// excluded from comparisons.
//
// Run may be called repeatedly; buffers and the returned trace are
// reused, so the result is only valid until the next Run. Run fails
// only when the stimulus does not match the configured cycles, inputs
// and K.
func (s *BitSim) Run(stim [][]uint64) (*BitTrace, error) {
	if len(stim) < s.opts.Cycles {
		return nil, fmt.Errorf("sim: stimulus covers %d of %d cycles", len(stim), s.opts.Cycles)
	}
	for cyc, vec := range stim[:s.opts.Cycles] {
		if len(vec) != len(s.inputs)*s.k {
			return nil, fmt.Errorf("sim: cycle %d stimulus has %d words for %d inputs at K=%d", cyc, len(vec), len(s.inputs), s.k)
		}
	}
	k := s.k
	s.reset()
	for cyc := 0; cyc < s.opts.Cycles; cyc++ {
		// Gather every flip-flop's data words from the settled
		// pre-edge state before any capture commits, so same-edge
		// captures all read pre-edge values as in the event engine.
		sc := s.scratch[:0]
		for _, n := range s.dffs {
			sc = append(sc, s.val(n.Fanins[0])...)
		}
		for i, n := range s.dffs {
			d := sc[i*k : i*k+k]
			copy(s.traceRef[n.ID][cyc*k:], d)
			copy(s.val(n.ID), d)
		}
		for i, n := range s.inputs {
			src := stim[cyc][i*k : i*k+k]
			dst := s.val(n.ID)
			for w := range dst {
				dst[w] = src[w]
			}
		}
		s.settle()
		// Primary outputs sample the settled end-of-cycle values: the
		// event engine reads them at the next cycle boundary, before
		// any of that boundary's clock or input actions.
		for _, n := range s.outputs {
			copy(s.traceRef[n.ID][cyc*k:cyc*k+k], s.val(n.Fanins[0]))
		}
	}
	return &s.trace, nil
}

// reset returns every net to its power-on value: flip-flops and inputs
// 0, constants driven, gates settled. The trace needs no clearing: each
// Run overwrites every sample.
func (s *BitSim) reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	for _, n := range s.c.Nodes {
		if !n.Dead() && n.Kind == netlist.KindConst1 {
			v := s.val(n.ID)
			for i := range v {
				v[i] = ^uint64(0)
			}
		}
	}
	s.settle()
}

// settle evaluates combinational logic in one levelized pass under zero
// delay.
func (s *BitSim) settle() {
	for _, n := range s.comb {
		evalGateWords(n, s.words, s.k, s.val(n.ID))
	}
}

// evalGateWords computes a combinational gate's output words into dst:
// one bitwise operation per word evaluates the gate for 64 lanes at
// once. vals holds k words per node; dst may alias the gate's own slot
// (fanins are distinct nodes in an acyclic combinational graph).
func evalGateWords(n *netlist.Node, vals []uint64, k int, dst []uint64) {
	switch n.Kind {
	case netlist.KindBuf:
		copy(dst, vals[int(n.Fanins[0])*k:int(n.Fanins[0])*k+k])
	case netlist.KindNot:
		src := vals[int(n.Fanins[0])*k : int(n.Fanins[0])*k+k]
		for w := range dst {
			dst[w] = ^src[w]
		}
	case netlist.KindAnd, netlist.KindNand:
		for w := range dst {
			dst[w] = ^uint64(0)
		}
		for _, f := range n.Fanins {
			src := vals[int(f)*k : int(f)*k+k]
			for w := range dst {
				dst[w] &= src[w]
			}
		}
		if n.Kind == netlist.KindNand {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case netlist.KindOr, netlist.KindNor:
		for w := range dst {
			dst[w] = 0
		}
		for _, f := range n.Fanins {
			src := vals[int(f)*k : int(f)*k+k]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
		if n.Kind == netlist.KindNor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case netlist.KindXor, netlist.KindXnor:
		for w := range dst {
			dst[w] = 0
		}
		for _, f := range n.Fanins {
			src := vals[int(f)*k : int(f)*k+k]
			for w := range dst {
				dst[w] ^= src[w]
			}
		}
		if n.Kind == netlist.KindXnor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	default:
		for w := range dst {
			dst[w] = 0
		}
	}
}
