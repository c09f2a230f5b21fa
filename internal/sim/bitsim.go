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
	opts BitOptions
	k    int // words per value

	gates   gateTable
	comb    []int32 // combinational gates in topo order
	inputs  []int32
	outputs []int32
	dffs    []int32

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
		opts:    opts,
		k:       k,
		gates:   newGateTable(c),
		inputs:  nodeIDs(c.Inputs()),
		outputs: nodeIDs(c.Outputs()),
		dffs:    nodeIDs(c.FlipFlops()),
		words:   make([]uint64, len(c.Nodes)*k),
		trace:   BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
	}
	for _, n := range order {
		if n.Kind.IsCombinational() {
			s.comb = append(s.comb, int32(n.ID))
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

// nodeIDs returns the IDs of ns in order.
func nodeIDs(ns []*netlist.Node) []int32 {
	ids := make([]int32, len(ns))
	for i, n := range ns {
		ids[i] = int32(n.ID)
	}
	return ids
}

// val returns node id's k-word value slice.
func (s *BitSim) val(id int32) []uint64 {
	b := int(id) * s.k
	return s.words[b : b+s.k : b+s.k]
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
		for _, id := range s.dffs {
			sc = append(sc, s.val(s.gates.fanin0(id))...)
		}
		for i, id := range s.dffs {
			d := sc[i*k : i*k+k]
			copy(s.traceRef[id][cyc*k:], d)
			copy(s.val(id), d)
		}
		for i, id := range s.inputs {
			copy(s.val(id), stim[cyc][i*k:i*k+k])
		}
		s.settle()
		// Primary outputs sample the settled end-of-cycle values: the
		// event engine reads them at the next cycle boundary, before
		// any of that boundary's clock or input actions.
		for _, id := range s.outputs {
			copy(s.traceRef[id][cyc*k:cyc*k+k], s.val(s.gates.fanin0(id)))
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
	for id, r := range s.gates.rows {
		if r.kind == netlist.KindConst1 {
			v := s.val(int32(id))
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
	for _, id := range s.comb {
		s.gates.eval(id, s.words, s.k, s.val(id))
	}
}

// gateTable is the flat form of a circuit that both word engines
// evaluate gates from: one row per node with its kind and the bounds of
// its fanins in one CSR array, so the per-gate work reads one 16-byte
// row and the fanin IDs instead of chasing a *netlist.Node. Dead nodes
// are KindInvalid with no fanins.
type gateTable struct {
	rows []gateRow
	fins []int32
}

// gateRow is one node of a gateTable: its fanins are fins[start:end].
type gateRow struct {
	kind       netlist.Kind
	start, end int32
}

func newGateTable(c *netlist.Circuit) gateTable {
	g := gateTable{rows: make([]gateRow, len(c.Nodes))}
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		start := int32(len(g.fins))
		for _, f := range n.Fanins {
			g.fins = append(g.fins, int32(f))
		}
		g.rows[n.ID] = gateRow{n.Kind, start, int32(len(g.fins))}
	}
	return g
}

// kind returns node id's kind.
func (g *gateTable) kind(id int32) netlist.Kind { return g.rows[id].kind }

// fanin0 returns node id's first fanin: the data input of a flip-flop,
// latch or primary output.
func (g *gateTable) fanin0(id int32) int32 { return g.fins[g.rows[id].start] }

// eval computes gate id's output words into dst (len(dst) == k): one
// bitwise operation per word evaluates the gate for 64 lanes at once.
// vals holds k words per node; dst may alias the gate's own slot
// (fanins are distinct nodes in an acyclic combinational graph). A gate
// without fanins folds nothing, so AND/NAND give all ones/zeros,
// OR/XOR zeros and NOR/XNOR ones; any other kind gives zeros, as the
// scalar evalGate does.
func (g *gateTable) eval(id int32, vals []uint64, k int, dst []uint64) {
	r := g.rows[id]
	fins, kind := g.fins[r.start:r.end], r.kind
	switch kind {
	case netlist.KindBuf, netlist.KindNot:
		b := int(fins[0]) * k
		src := vals[b : b+k : b+k]
		src = src[:len(dst)]
		if kind == netlist.KindBuf {
			copy(dst, src)
			return
		}
		for w := range dst {
			dst[w] = ^src[w]
		}
		return
	case netlist.KindAnd, netlist.KindNand:
		for w := range dst {
			dst[w] = ^uint64(0)
		}
		for _, f := range fins {
			b := int(f) * k
			src := vals[b : b+k : b+k]
			src = src[:len(dst)]
			for w := range dst {
				dst[w] &= src[w]
			}
		}
	case netlist.KindOr, netlist.KindNor:
		clear(dst)
		for _, f := range fins {
			b := int(f) * k
			src := vals[b : b+k : b+k]
			src = src[:len(dst)]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	case netlist.KindXor, netlist.KindXnor:
		clear(dst)
		for _, f := range fins {
			b := int(f) * k
			src := vals[b : b+k : b+k]
			src = src[:len(dst)]
			for w := range dst {
				dst[w] ^= src[w]
			}
		}
	default:
		clear(dst)
		return
	}
	if kind == netlist.KindNand || kind == netlist.KindNor || kind == netlist.KindXnor {
		for w := range dst {
			dst[w] = ^dst[w]
		}
	}
}
