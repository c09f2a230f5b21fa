package sim

import (
	"fmt"
	"sort"

	"virtualsync/internal/netlist"
)

// BitSim is the levelized, two-phase, bit-parallel simulation engine: it
// evaluates up to MaxLanes independent stimulus vectors at once by
// packing one lane per bit of a K-word uint64 value per net (K chosen
// from the lane count), and replaying the event engine's per-cycle
// clock-action schedule under zero-delay semantics.
//
// Per cycle the engine visits a precomputed list of "instants" (distinct
// clock phases within the period, in time order). At each instant all
// sequential captures read a snapshot of the settled pre-instant values
// — mirroring the event engine, where every clock action's effect is
// delayed by tcq > 0 — then the new state and (at phase 0) the new
// primary-input words are applied, and combinational logic re-settles in
// one levelized pass, with open latches flowing transparently.
//
// For circuits whose sequential elements are all phase-0 flip-flops
// (every generated original — see BitSimExact), zero-delay semantics
// coincide with the event engine at any period at or above the STA
// minimum. For optimized circuits carrying multi-period logic waves the
// two diverge structurally; those run on WaveSim, the word-parallel
// continuous-time engine (see wavesim.go), which is exact per lane at
// any period.
type BitSim struct {
	c    *netlist.Circuit
	opts BitOptions
	k    int // words per value

	comb    []*netlist.Node // combinational gates in topo order
	inputs  []*netlist.Node
	outputs []*netlist.Node
	nLatch  int

	schedule    []bitInstant
	hasDeferred bool

	words    []uint64   // current value words, k per node
	open     []bool     // latch transparency, per node
	traceRef [][]uint64 // per-node alias into trace.Words (nil if untraced)
	scratch  []uint64   // snapshot reads gathered before instant writes
	trace    BitTrace
}

// BitOptions configures a bit-parallel run.
type BitOptions struct {
	Cycles int // number of clock cycles to simulate
	Lanes  int // meaningful stimulus lanes, 1..MaxLanes
}

// bitInstant groups all clock actions that share one phase fraction.
type bitInstant struct {
	frac   float64
	dffs   []netlist.NodeID
	closes []netlist.NodeID
	opens  []bitOpen
}

// bitOpen is a latch opening edge. A latch with Phase+netlist.LatchDuty >= 1 opens in
// the clock cycle after the one that scheduled it; the captured value is
// attributed to the scheduling cycle, as in the event engine.
type bitOpen struct {
	node     netlist.NodeID
	deferred bool
}

// NewBit prepares a bit-parallel simulator. The circuit must be
// structurally valid and free of combinational cycles (latch-through
// cycles are permitted and resolved iteratively at run time).
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
	k := laneWords(opts.Lanes)
	s := &BitSim{
		c:       c,
		opts:    opts,
		k:       k,
		inputs:  c.Inputs(),
		outputs: c.Outputs(),
		words:   make([]uint64, len(c.Nodes)*k),
		open:    make([]bool, len(c.Nodes)),
		trace:   BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
	}
	for _, n := range order {
		if n.Kind.IsCombinational() {
			s.comb = append(s.comb, n)
		}
	}

	byFrac := make(map[float64]*bitInstant)
	at := func(frac float64) *bitInstant {
		ins, ok := byFrac[frac]
		if !ok {
			ins = &bitInstant{frac: frac}
			byFrac[frac] = ins
		}
		return ins
	}
	at(0) // inputs always change at the cycle boundary
	actions := 0
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		switch n.Kind {
		case netlist.KindDFF:
			ins := at(n.Phase)
			ins.dffs = append(ins.dffs, n.ID)
			actions++
		case netlist.KindLatch:
			s.nLatch++
			close := at(n.Phase)
			close.closes = append(close.closes, n.ID)
			openFrac := n.Phase + netlist.LatchDuty
			deferred := openFrac >= 1
			if deferred {
				openFrac -= 1
				s.hasDeferred = true
			}
			ins := at(openFrac)
			ins.opens = append(ins.opens, bitOpen{node: n.ID, deferred: deferred})
			actions++
		}
	}
	for _, ins := range byFrac {
		s.schedule = append(s.schedule, *ins)
	}
	sort.Slice(s.schedule, func(i, j int) bool { return s.schedule[i].frac < s.schedule[j].frac })
	s.scratch = make([]uint64, 0, actions*k)

	s.traceRef = make([][]uint64, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		switch n.Kind {
		case netlist.KindDFF, netlist.KindLatch, netlist.KindOutput:
			row := make([]uint64, opts.Cycles*k)
			s.trace.Words[n.Name] = row
			s.traceRef[n.ID] = row
		}
	}
	return s, nil
}

// val returns node id's k-word value slice.
func (s *BitSim) val(id netlist.NodeID) []uint64 {
	return s.words[int(id)*s.k : int(id)*s.k+s.k]
}

// SupportsBitSim reports whether c can run on the bit-parallel engine at
// all: the combinational subgraph must be acyclic (latch-through
// feedback is handled at run time and fails gracefully if it does not
// settle).
func SupportsBitSim(c *netlist.Circuit) bool {
	_, err := c.TopoOrder()
	return err == nil
}

// BitSimExact reports whether zero-delay two-phase semantics provably
// coincide with the event engine for c at any clock period meeting the
// STA minimum: every sequential element is an edge-triggered flip-flop
// clocked at phase 0. Generated original circuits satisfy this; circuits
// rebuilt by the optimizer (phase-shifted flip-flops, latch delay units,
// multi-period logic waves) generally do not, and run on WaveSim
// instead.
func BitSimExact(c *netlist.Circuit) bool {
	if !SupportsBitSim(c) {
		return false
	}
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		switch n.Kind {
		case netlist.KindLatch:
			return false
		case netlist.KindDFF:
			if n.Phase != 0 {
				return false
			}
		}
	}
	return true
}

// Run simulates opts.Cycles cycles with packed stimulus words:
// stim[cycle][i*K : (i+1)*K] carries one bit per lane for the i-th
// primary input (c.Inputs() order), K words per input as produced by
// PackStimulus for the configured lane count. Lanes beyond opts.Lanes
// must be zero — they simulate an all-zero-input circuit and are
// excluded from comparisons.
//
// Run may be called repeatedly; buffers and the returned trace are
// reused, so the result is only valid until the next Run. Run fails if
// open-latch feedback fails to settle under zero delay; callers should
// treat that as "engine not applicable", not as a verification verdict.
func (s *BitSim) Run(stim [][]uint64) (*BitTrace, error) {
	if len(stim) < s.opts.Cycles {
		return nil, fmt.Errorf("sim: stimulus covers %d of %d cycles", len(stim), s.opts.Cycles)
	}
	for cyc, vec := range stim[:s.opts.Cycles] {
		if len(vec) != len(s.inputs)*s.k {
			return nil, fmt.Errorf("sim: cycle %d stimulus has %d words for %d inputs at K=%d", cyc, len(vec), len(s.inputs), s.k)
		}
	}
	s.reset()

	// Settle initial combinational values: everything starts at 0
	// except constants, latches start opaque.
	for _, n := range s.comb {
		evalGateWords(n, s.words, s.k, s.val(n.ID))
	}

	// The loop runs one extra iteration past the last cycle when some
	// latch opens in the cycle after its scheduling cycle, so those
	// final captures (attributed to the last real cycle) still land.
	lastCycle := s.opts.Cycles
	if !s.hasDeferred {
		lastCycle--
	}
	for cyc := 0; cyc <= lastCycle; cyc++ {
		for i := range s.schedule {
			if err := s.instant(&s.schedule[i], cyc, stim); err != nil {
				return nil, err
			}
		}
		if cyc < s.opts.Cycles {
			// Primary outputs sample the settled end-of-cycle values:
			// the event engine reads them at the next cycle boundary,
			// before any of that boundary's clock or input actions.
			for _, n := range s.outputs {
				copy(s.traceRef[n.ID][cyc*s.k:cyc*s.k+s.k], s.val(n.Fanins[0]))
			}
		}
	}
	return &s.trace, nil
}

func (s *BitSim) reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	for i := range s.open {
		s.open[i] = false
	}
	for _, n := range s.c.Nodes {
		if !n.Dead() && n.Kind == netlist.KindConst1 {
			v := s.val(n.ID)
			for i := range v {
				v[i] = ^uint64(0)
			}
		}
	}
	for _, row := range s.trace.Words {
		for i := range row {
			row[i] = 0
		}
	}
}

// instant executes one scheduled phase instant of processing cycle cyc.
// cyc == opts.Cycles is the tail pass where only deferred latch opens
// (attributed to the final real cycle) still fire.
func (s *BitSim) instant(ins *bitInstant, cyc int, stim [][]uint64) error {
	inCycle := cyc < s.opts.Cycles

	// Phase A: gather every capture's data words from the settled
	// pre-instant state. No writes happen until all reads are done,
	// which reproduces the event engine's snapshot behavior (same-time
	// clock actions all see values from before the instant).
	sc := s.scratch[:0]
	if inCycle {
		for _, id := range ins.dffs {
			sc = append(sc, s.val(s.c.Nodes[id].Fanins[0])...)
		}
	}
	for _, oa := range ins.opens {
		attr := cyc
		if oa.deferred {
			attr--
		}
		if attr >= 0 && attr < s.opts.Cycles {
			sc = append(sc, s.val(s.c.Nodes[oa.node].Fanins[0])...)
		}
	}

	// Phase B: commit state, captures and transparency changes.
	wrote := len(sc) > 0
	k := 0
	if inCycle {
		for _, id := range ins.dffs {
			d := sc[k : k+s.k]
			k += s.k
			copy(s.traceRef[id][cyc*s.k:], d)
			copy(s.val(id), d)
		}
		for _, id := range ins.closes {
			s.open[id] = false
		}
	}
	for _, oa := range ins.opens {
		attr := cyc
		if oa.deferred {
			attr--
		}
		if attr < 0 || attr >= s.opts.Cycles {
			continue
		}
		d := sc[k : k+s.k]
		k += s.k
		copy(s.traceRef[oa.node][attr*s.k:], d)
		copy(s.val(oa.node), d)
		s.open[oa.node] = true
	}
	if ins.frac == 0 && inCycle {
		for i, n := range s.inputs {
			src := stim[cyc][i*s.k : (i+1)*s.k]
			dst := s.val(n.ID)
			for w := range dst {
				if dst[w] != src[w] {
					dst[w] = src[w]
					wrote = true
				}
			}
		}
	}
	if !wrote {
		return nil
	}
	return s.settle()
}

// settle re-evaluates combinational logic to a fixpoint under zero
// delay. Open latches are transparent, so each pass flows their data
// input through and re-evaluates; a chain of k open latches needs k
// passes. Failure to settle means level-sensitive feedback oscillates
// under zero delay — the caller must fall back to the event engine.
func (s *BitSim) settle() error {
	for pass := 0; pass <= s.nLatch+1; pass++ {
		for _, n := range s.comb {
			evalGateWords(n, s.words, s.k, s.val(n.ID))
		}
		changed := false
		if s.nLatch > 0 {
			for _, n := range s.c.Nodes {
				if n.Dead() || n.Kind != netlist.KindLatch || !s.open[n.ID] {
					continue
				}
				d := s.val(n.Fanins[0])
				v := s.val(n.ID)
				for w := range v {
					if v[w] != d[w] {
						v[w] = d[w]
						changed = true
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: open-latch feedback does not settle under zero delay")
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
