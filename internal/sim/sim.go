// Package sim implements logic simulation of gate-level circuits for the
// VirtualSync reproduction, with three engines sharing one trace format:
//
//   - an event-driven continuous-time engine (Simulator) with transport
//     delays, edge-triggered flip-flops and level-sensitive latches on
//     phase-shifted clocks — the authoritative timing-accurate oracle;
//   - a word-parallel continuous-time engine (WaveSim, see wavesim.go)
//     with the same semantics, exact per lane at any period, for
//     optimized circuits whose logic waves span clock periods;
//   - a levelized zero-delay bit-parallel engine (BitSim, see
//     bitsim.go) for synchronous circuits of phase-0 flip-flops whose
//     paths settle within the period, evaluating 64 independent
//     stimulus vectors per machine word.
//
// lanes.go picks the cheapest exact word engine per circuit.
//
// Their purpose is functional verification: an optimized circuit (with
// flip-flops removed and delay units inserted) must latch exactly the
// same values at its boundary flip-flops and primary outputs, in the
// same clock cycles, as the original circuit — the paper's definition of
// preserved functionality.
package sim

import (
	"fmt"
	"sort"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
)

// Options configures a simulation run.
type Options struct {
	T      float64 // clock period
	Cycles int     // number of clock cycles to simulate

	// OnEvent, when non-nil, receives every committed value change — a
	// lightweight waveform dump for debugging.
	OnEvent func(time float64, name string, value bool)
}

// Trace records sampled values: Trace[name][cycle] for every flip-flop
// (value captured at its clock edge in that cycle) and primary output
// (value present at the end of the cycle).
type Trace map[string][]bool

type eventKind int32

const (
	evClock  eventKind = iota // flip-flop/latch clock action, PO sampling
	evInput                   // primary-input change
	evSignal                  // gate/net value change
)

// event is the payload of one queued scalar event; its time and kind
// are the queue key it is pushed under.
type event struct {
	node  netlist.NodeID
	cycle int32
	value bool
}

// pendingInfo tracks, per node, the number of queued signal events and
// the value of the latest-scheduled one, so projected() is O(1). It is
// slice-backed (indexed by NodeID) instead of a map: count naturally
// returns to zero as events drain, so cross-run reset is a memclr.
type pendingInfo struct {
	time  float64
	count int32
	value bool
}

// Simulator drives one circuit. A Simulator may be reused: Run resets
// all internal state, and its buffers (event queue, pending index, value
// and trace storage) are retained between runs, so steady-state
// simulation performs no per-run allocations. The Trace returned by Run
// aliases those buffers and is only valid until the next Run on the same
// Simulator.
type Simulator struct {
	c       *netlist.Circuit
	lib     *celllib.Library
	opts    Options
	inputs  []*netlist.Node
	values  []bool
	delays  []float64
	fanouts [][]netlist.NodeID
	queue   eventQueue[event]
	trace   Trace
	pending []pendingInfo

	// latchOpenAt maps each transparent latch to its opening-edge time;
	// NaN-free: openValid gates validity. Slice-backed per NodeID.
	latchOpenAt []float64
	latchOpen   []bool
	hasLatch    bool
}

// New prepares a simulator. The circuit must be structurally valid.
func New(c *netlist.Circuit, lib *celllib.Library, opts Options) (*Simulator, error) {
	if opts.T <= 0 || opts.Cycles <= 0 {
		return nil, fmt.Errorf("sim: need positive period and cycle count")
	}
	delays := make([]float64, len(c.Nodes))
	hasLatch := false
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		var err error
		if delays[n.ID], err = lib.Delay(n); err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
		if n.Kind == netlist.KindLatch {
			hasLatch = true
		}
	}
	return &Simulator{
		c:           c,
		lib:         lib,
		opts:        opts,
		inputs:      c.Inputs(),
		values:      make([]bool, len(c.Nodes)),
		delays:      delays,
		fanouts:     c.Fanouts(),
		trace:       make(Trace),
		pending:     make([]pendingInfo, len(c.Nodes)),
		latchOpenAt: make([]float64, len(c.Nodes)),
		latchOpen:   make([]bool, len(c.Nodes)),
		hasLatch:    hasLatch,
	}, nil
}

// reset returns the simulator to its power-on state while keeping every
// buffer's backing storage for reuse.
func (s *Simulator) reset() {
	for i := range s.values {
		s.values[i] = false
	}
	for i := range s.pending {
		s.pending[i] = pendingInfo{}
	}
	for i := range s.latchOpen {
		s.latchOpen[i] = false
		s.latchOpenAt[i] = 0
	}
	s.queue.reset()
	for _, tr := range s.trace {
		for i := range tr {
			tr[i] = false
		}
	}
}

// Run simulates the circuit for opts.Cycles cycles with the given
// per-cycle primary-input stimulus: stimulus[cycle][i] drives the i-th
// input (ordered as c.Inputs()). It returns the captured trace.
//
// Run may be called repeatedly on the same Simulator; each call restarts
// from the power-on state. The returned Trace shares storage with the
// Simulator and is overwritten by the next Run.
func (s *Simulator) Run(stimulus [][]bool) (Trace, error) {
	inputs := s.inputs
	if len(stimulus) < s.opts.Cycles {
		return nil, fmt.Errorf("sim: stimulus covers %d of %d cycles", len(stimulus), s.opts.Cycles)
	}
	for cyc, vec := range stimulus[:s.opts.Cycles] {
		if len(vec) != len(inputs) {
			return nil, fmt.Errorf("sim: cycle %d stimulus has %d values for %d inputs", cyc, len(vec), len(inputs))
		}
	}
	s.reset()
	T := s.opts.T

	// Constants drive their value at time 0.
	for _, n := range s.c.Nodes {
		if !n.Dead() && n.Kind == netlist.KindConst1 {
			s.values[n.ID] = true
		}
	}

	// Settle initial combinational values (all sequential outputs and
	// inputs start at 0). Combinational loops may not stabilize; the
	// pass count is bounded and any residue flushes during warmup.
	for pass := 0; pass < len(s.c.Nodes)+2; pass++ {
		changed := false
		for _, n := range s.c.Nodes {
			if n.Dead() || !n.Kind.IsCombinational() {
				continue
			}
			if v := evalGate(n, s.values); v != s.values[n.ID] {
				s.values[n.ID] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Schedule all clock actions and input changes up front.
	for cyc := 0; cyc < s.opts.Cycles; cyc++ {
		base := float64(cyc) * T
		// Primary-input changes at the cycle boundary (after the clock
		// actions at the same instant, so edge-sampling sees old data).
		for i, in := range inputs {
			s.push(base, evInput, event{node: in.ID, value: stimulus[cyc][i], cycle: int32(cyc)})
		}
		// Flip-flop and latch clock actions; primary-output sampling.
		for _, n := range s.c.Nodes {
			if n.Dead() {
				continue
			}
			switch n.Kind {
			case netlist.KindDFF:
				s.push(base+n.Phase*T, evClock, event{node: n.ID, cycle: int32(cyc)})
			case netlist.KindLatch:
				open := base + n.Phase*T + netlist.LatchDuty*T
				s.push(base+n.Phase*T, evClock, event{node: n.ID, cycle: int32(cyc), value: false}) // close
				s.push(open, evClock, event{node: n.ID, cycle: int32(cyc), value: true})            // open
			case netlist.KindOutput:
				// Sample at the end of the cycle.
				s.push(base+T, evClock, event{node: n.ID, cycle: int32(cyc)})
			}
		}
	}

	// Latch pass-through responses are floored at open+tcq so data
	// arriving just after the edge can never beat the opening-edge
	// response itself (the transfer characteristic is max(open+tcq,
	// in+tdq), matching core's delay-unit model).
	horizon := float64(s.opts.Cycles)*T + 10*T
	for {
		key, ok := s.queue.next()
		if !ok || key.time > horizon {
			break
		}
		for {
			e, ok := s.queue.take()
			if !ok {
				break
			}
			s.apply(key, &e)
		}
	}
	return s.trace, nil
}

// apply commits one event taken from the queue under key.
func (s *Simulator) apply(key qkey, e *event) {
	switch key.kind {
	case evInput:
		s.setValue(e.node, e.value, key.time)
	case evSignal:
		if p := &s.pending[e.node]; p.count > 0 {
			p.count--
		}
		s.setValue(e.node, e.value, key.time)
	case evClock:
		n := s.c.Node(e.node)
		switch n.Kind {
		case netlist.KindDFF:
			d := s.values[n.Fanins[0]]
			s.capture(n.Name, int(e.cycle), d)
			if d != s.projected(n.ID) {
				s.push(key.time+s.lib.FF.Tcq, evSignal, event{node: n.ID, value: d})
			}
		case netlist.KindLatch:
			if e.value { // opening edge: propagate waiting data
				s.latchOpen[n.ID] = true
				s.latchOpenAt[n.ID] = key.time
				d := s.values[n.Fanins[0]]
				s.capture(n.Name, int(e.cycle), d)
				if d != s.projected(n.ID) {
					s.push(key.time+s.lib.Latch.Tcq, evSignal, event{node: n.ID, value: d})
				}
			} else {
				s.latchOpen[n.ID] = false
			}
		case netlist.KindOutput:
			s.capture(n.Name, int(e.cycle), s.values[n.Fanins[0]])
		}
	}
}

// push queues an event and indexes signal events per node. Pushes are
// made in causal order, so a push at the same time as the node's latest
// pending event is the newer one and replaces it in the index.
func (s *Simulator) push(t float64, kind eventKind, e event) {
	s.queue.push(t, kind, e)
	if kind != evSignal {
		return
	}
	p := &s.pending[e.node]
	p.count++
	if t >= p.time || p.count == 1 {
		p.time, p.value = t, e.value
	}
}

// projected returns the value node id will have after all its pending
// scheduled changes; used to suppress redundant events.
func (s *Simulator) projected(id netlist.NodeID) bool {
	if p := &s.pending[id]; p.count > 0 {
		return p.value
	}
	return s.values[id]
}

// setValue applies a value change and propagates to fanouts.
func (s *Simulator) setValue(id netlist.NodeID, v bool, now float64) {
	if s.values[id] == v {
		return
	}
	s.values[id] = v
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(now, s.c.Node(id).Name, v)
	}
	for _, fo := range s.fanouts[id] {
		n := s.c.Node(fo)
		switch {
		case n.Kind.IsCombinational():
			nv := evalGate(n, s.values)
			s.push(now+s.delays[n.ID], evSignal, event{node: n.ID, value: nv})
		case n.Kind == netlist.KindLatch:
			if !s.latchOpen[n.ID] {
				break
			}
			t := now + s.lib.Latch.Tdq
			if min := s.latchOpenAt[n.ID] + s.lib.Latch.Tcq; t < min {
				t = min
			}
			s.push(t, evSignal, event{node: n.ID, value: v})
		}
	}
}

// evalGate computes a combinational gate's output from current values.
func evalGate(n *netlist.Node, values []bool) bool {
	switch n.Kind {
	case netlist.KindBuf:
		return values[n.Fanins[0]]
	case netlist.KindNot:
		return !values[n.Fanins[0]]
	case netlist.KindAnd, netlist.KindNand:
		v := true
		for _, f := range n.Fanins {
			v = v && values[f]
		}
		if n.Kind == netlist.KindNand {
			v = !v
		}
		return v
	case netlist.KindOr, netlist.KindNor:
		v := false
		for _, f := range n.Fanins {
			v = v || values[f]
		}
		if n.Kind == netlist.KindNor {
			v = !v
		}
		return v
	case netlist.KindXor, netlist.KindXnor:
		v := false
		for _, f := range n.Fanins {
			v = v != values[f]
		}
		if n.Kind == netlist.KindXnor {
			v = !v
		}
		return v
	}
	return false
}

// capture records a sampled value in the trace.
func (s *Simulator) capture(name string, cycle int, v bool) {
	tr := s.trace[name]
	for len(tr) <= cycle {
		tr = append(tr, false)
	}
	tr[cycle] = v
	s.trace[name] = tr
}

// RandomStimulus generates a deterministic random input sequence for the
// circuit's primary inputs. Each call uses its own splittable generator
// (internal/prng) seeded from seed, so concurrent fuzz workers neither
// contend on shared PRNG state nor entangle each other's streams.
func RandomStimulus(c *netlist.Circuit, cycles int, seed int64) [][]bool {
	rng := prng.New(uint64(seed))
	n := len(c.Inputs())
	out := make([][]bool, cycles)
	for i := range out {
		vec := make([]bool, n)
		for j := range vec {
			vec[j] = rng.Uint64()&1 == 1
		}
		out[i] = vec
	}
	return out
}

// ResetStimulus is RandomStimulus with the first reset cycles forced to
// all-zero inputs. Feedback structures that are maskable by primary
// inputs flush their power-on state during the reset prefix, making
// post-warmup trace comparison well-defined even for circuits that do
// not forget their initial state under arbitrary stimulus (e.g. XOR
// rings, where a register relocation would otherwise show up as a
// permanent parity offset rather than a real functional difference).
func ResetStimulus(c *netlist.Circuit, cycles, reset int, seed int64) [][]bool {
	out := RandomStimulus(c, cycles, seed)
	if reset > cycles {
		reset = cycles
	}
	for i := 0; i < reset; i++ {
		for j := range out[i] {
			out[i][j] = false
		}
	}
	return out
}

// Mismatch describes one divergence between two traces.
type Mismatch struct {
	Name  string
	Cycle int
	A, B  bool
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s@%d: %v vs %v", m.Name, m.Cycle, m.A, m.B)
}

// CompareTraces checks that every signal present in both traces agrees
// from cycle warmup onward, and returns all mismatches.
func CompareTraces(a, b Trace, warmup int) []Mismatch {
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []Mismatch
	for _, name := range names {
		ta, tb := a[name], b[name]
		n := len(ta)
		if len(tb) < n {
			n = len(tb)
		}
		for cyc := warmup; cyc < n; cyc++ {
			if ta[cyc] != tb[cyc] {
				out = append(out, Mismatch{name, cyc, ta[cyc], tb[cyc]})
			}
		}
	}
	return out
}

// VerifyEquivalenceStim simulates both circuits on the same per-cycle
// stimulus — each at its own clock period (the optimized circuit runs
// faster; functionality is defined per cycle index, not wall clock) —
// and compares every common flip-flop and primary output from cycle
// warmup onward; the cycle count is len(stim). Both circuits must have
// the same primary inputs. It is the two-event-sim oracle behind
// CheckEquivalence.
func VerifyEquivalenceStim(a, b *netlist.Circuit, lib *celllib.Library, Ta, Tb float64, warmup int, stim [][]bool) ([]Mismatch, error) {
	if err := sameInputs(a, b); err != nil {
		return nil, err
	}
	cycles := len(stim)
	sa, err := New(a, lib, Options{T: Ta, Cycles: cycles})
	if err != nil {
		return nil, err
	}
	ta, err := sa.Run(stim)
	if err != nil {
		return nil, err
	}
	sb, err := New(b, lib, Options{T: Tb, Cycles: cycles})
	if err != nil {
		return nil, err
	}
	tb, err := sb.Run(stim)
	if err != nil {
		return nil, err
	}
	return CompareTraces(ta, tb, warmup), nil
}

// sameInputs reports an error unless a and b have the same primary
// inputs, by name and in order.
func sameInputs(a, b *netlist.Circuit) error {
	ia, ib := a.Inputs(), b.Inputs()
	if len(ia) != len(ib) {
		return fmt.Errorf("sim: input counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Name != ib[i].Name {
			return fmt.Errorf("sim: input %d name mismatch: %q vs %q", i, ia[i].Name, ib[i].Name)
		}
	}
	return nil
}
