// Package sim implements logic simulation of gate-level circuits for the
// VirtualSync reproduction, with two engines sharing one trace format:
//
//   - an event-driven continuous-time engine (Simulator) with transport
//     delays, edge-triggered flip-flops and level-sensitive latches on
//     phase-shifted clocks — the authoritative timing-accurate oracle;
//   - a levelized, two-phase, 64-lane bit-parallel engine (BitSim, see
//     bitsim.go) for the synchronous zero-delay semantics the
//     verification hot path needs, evaluating 64 independent stimulus
//     vectors per machine word.
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
	Duty   float64 // latch transparency starts at phase + Duty*T
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

// event is a plain value: the queue stores events inline in a slice, so
// scheduling allocates nothing once the backing array is warm.
type event struct {
	time  float64
	seq   int64 // FIFO tie-break within same (time, kind)
	node  netlist.NodeID
	kind  eventKind
	cycle int32
	value bool
}

// eventLess is the queue priority: time, then kind, then FIFO order.
func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is a typed binary min-heap over an inline event arena. It
// replaces container/heap to avoid interface{} boxing and the pointer
// chasing of a *event heap; the slice is retained across runs.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && eventLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// pendingInfo tracks, per node, the number of queued signal events and
// the value of the latest-scheduled one, so projected() is O(1). It is
// slice-backed (indexed by NodeID) instead of a map: count naturally
// returns to zero as events drain, so cross-run reset is a memclr.
type pendingInfo struct {
	time  float64
	seq   int64
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
	queue   eventQueue
	seq     int64
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
	if opts.Duty <= 0 || opts.Duty >= 1 {
		opts.Duty = 0.5
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
	s.queue = s.queue[:0]
	s.seq = 0
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
			s.push(event{time: base, kind: evInput, node: in.ID, value: stimulus[cyc][i], cycle: int32(cyc)})
		}
		// Flip-flop and latch clock actions; primary-output sampling.
		for _, n := range s.c.Nodes {
			if n.Dead() {
				continue
			}
			switch n.Kind {
			case netlist.KindDFF:
				s.push(event{time: base + n.Phase*T, kind: evClock, node: n.ID, cycle: int32(cyc)})
			case netlist.KindLatch:
				open := base + n.Phase*T + s.opts.Duty*T
				s.push(event{time: base + n.Phase*T, kind: evClock, node: n.ID, cycle: int32(cyc), value: false}) // close
				s.push(event{time: open, kind: evClock, node: n.ID, cycle: int32(cyc), value: true})              // open
			case netlist.KindOutput:
				// Sample at the end of the cycle.
				s.push(event{time: base + T, kind: evClock, node: n.ID, cycle: int32(cyc)})
			}
		}
	}

	// Latch pass-through responses are floored at open+tcq so data
	// arriving just after the edge can never beat the opening-edge
	// response itself (the transfer characteristic is max(open+tcq,
	// in+tdq), matching core's delay-unit model).
	horizon := float64(s.opts.Cycles)*T + 10*T
	for len(s.queue) > 0 {
		e := s.queue.pop()
		s.popped(&e)
		if e.time > horizon {
			break
		}
		switch e.kind {
		case evInput:
			s.setValue(e.node, e.value, e.time)
		case evSignal:
			s.setValue(e.node, e.value, e.time)
		case evClock:
			n := s.c.Node(e.node)
			switch n.Kind {
			case netlist.KindDFF:
				d := s.values[n.Fanins[0]]
				s.capture(n.Name, int(e.cycle), d)
				if d != s.projected(n.ID) {
					s.push(event{time: e.time + s.lib.FF.Tcq, kind: evSignal, node: n.ID, value: d})
				}
			case netlist.KindLatch:
				if e.value { // opening edge: propagate waiting data
					s.latchOpen[n.ID] = true
					s.latchOpenAt[n.ID] = e.time
					d := s.values[n.Fanins[0]]
					s.capture(n.Name, int(e.cycle), d)
					if d != s.projected(n.ID) {
						s.push(event{time: e.time + s.lib.Latch.Tcq, kind: evSignal, node: n.ID, value: d})
					}
				} else {
					s.latchOpen[n.ID] = false
				}
			case netlist.KindOutput:
				s.capture(n.Name, int(e.cycle), s.values[n.Fanins[0]])
			}
		}
	}
	return s.trace, nil
}

// push adds an event with a FIFO sequence number and indexes signal
// events per node.
func (s *Simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
	if e.kind != evSignal {
		return
	}
	p := &s.pending[e.node]
	p.count++
	if e.time > p.time || (e.time == p.time && e.seq > p.seq) || p.count == 1 {
		p.time, p.seq, p.value = e.time, e.seq, e.value
	}
}

// popped updates the pending index when a signal event leaves the queue.
func (s *Simulator) popped(e *event) {
	if e.kind != evSignal {
		return
	}
	if p := &s.pending[e.node]; p.count > 0 {
		p.count--
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
			s.push(event{time: now + s.delays[n.ID], kind: evSignal, node: n.ID, value: nv})
		case n.Kind == netlist.KindLatch:
			if !s.latchOpen[n.ID] {
				break
			}
			t := now + s.lib.Latch.Tdq
			if min := s.latchOpenAt[n.ID] + s.lib.Latch.Tcq; t < min {
				t = min
			}
			s.push(event{time: t, kind: evSignal, node: n.ID, value: v})
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
	ia, ib := a.Inputs(), b.Inputs()
	if len(ia) != len(ib) {
		return nil, fmt.Errorf("sim: input counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Name != ib[i].Name {
			return nil, fmt.Errorf("sim: input %d name mismatch: %q vs %q", i, ia[i].Name, ib[i].Name)
		}
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
