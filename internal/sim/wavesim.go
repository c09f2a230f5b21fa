package sim

import (
	"fmt"
	"slices"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// WaveSim is the word-parallel form of the continuous-time event engine
// (Simulator): it simulates up to MaxLanes independent stimulus lanes
// at once under the full transport-delay model — phase-shifted
// flip-flops, level-sensitive latch delay units, multi-period logic
// waves — so wave-pipelined optimized circuits verify bit-parallel
// instead of one event simulation per vector.
//
// Exactness per lane is by construction, not approximation: after
// every instant each lane's state equals the scalar engine's, and so
// does every sample. Event *times* in the transport-delay model depend
// only on the commit time of the cause and a per-node delay, never on
// logic values, so the instants at which lane l's scalar engine commits
// a change are among the word engine's instants. Every word event
// carries value words for all lanes, and a commit writes all of them.
// That is exact because every node's event times are nondecreasing in
// push order — gates at now+delay, flip-flops at edge+Tcq, latches at
// open+Tcq or max(now+Tdq, open+Tcq) — so the newest event of a node
// commits last, and because each node's newest event always holds what
// the scalar engine would schedule now: a gate's is its function of its
// fanins (every gate starts equal to it, and is re-evaluated whenever a
// fanin changes), a flip-flop's or latch's is its data input as of its
// last capture or, while the latch is open, as of now. A lane whose
// cause did not change at the push instant therefore already holds the
// event's value when it commits, and the commit leaves it alone.
//
// A node is scheduled once per drained queue key (flush), from the
// key's final state, if any lane of a fanin changed: a gate gets its
// function of its fanins one gate delay later, an open latch its data
// input. The scalar engine schedules at every fanin commit, and all but
// the last of one instant's events are zero-width glitches, which is
// what WaveSim does not reproduce. Clock actions sort before input and
// signal commits at an instant, so every flip-flop, latch and output
// sample reads a settled instant, never a glitch.
//
// The argument has two preconditions, and NewWave rejects a circuit
// that breaks either: the initial settle must reach every gate's
// function of its fanins, so there may be no combinational cycle (and
// the settle is one topological pass), and latch times must stay
// monotone across a closed phase, which holds while Latch.Tdq−Latch.Tcq
// is at most the LatchDuty·T for which a latch is opaque. The
// differential tests, FuzzWaveSimAgainstEventSim and
// FuzzWaveBitSimAgainstEventSim hold every lane to the scalar engine
// from cycle 0.
type WaveSim struct {
	lib  *celllib.Library
	opts WaveOptions
	k    int // words per value

	gates   gateTable
	comb    []int32 // combinational gates in topological order (the settle pass)
	consts  []int32 // KindConst1 nodes
	clocked []int32 // flip-flops, latches and primary outputs in node order
	phase   []float64
	foStart []int32 // node id's fanouts are fos[foStart[id]:foStart[id+1]]
	fos     []int32

	inputs   []int32 // primary inputs in c.Inputs() order
	inputIdx []int32 // node -> index in inputs, -1 otherwise
	delays   []float64

	vals []uint64 // current value words, k per node

	queue eventQueue[wevent]

	// arena backs event value words: k words per slot, recycled
	// through freeSlots. Slices into it are never retained across an
	// alloc (which may grow the backing array).
	arena     []uint64
	freeSlots []int32

	// touched lists, in first-touch order, the gates and open latches
	// whose fanin changed in the key being drained; marked flags them.
	// flush schedules each once.
	marked  []bool
	touched []int32

	latchOpenAt []float64
	latchOpen   []bool

	traceRef [][]uint64 // per-node alias into trace.Words (nil if untraced)
	trace    BitTrace
}

// WaveOptions configures a word-parallel continuous-time run.
type WaveOptions struct {
	T      float64 // clock period
	Cycles int     // number of clock cycles to simulate
	Lanes  int     // meaningful stimulus lanes, 1..MaxLanes
}

// wevent mirrors the scalar engine's event payload, with the bool value
// replaced by an arena slot holding k value words.
// For latch clock events open distinguishes the opening edge.
type wevent struct {
	node  int32
	cycle int32
	slot  int32
	open  bool
}

// NewWave prepares a word-parallel continuous-time simulator. The
// circuit must be structurally valid and free of combinational cycles,
// and if it has latches, lib's Latch.Tdq may exceed Latch.Tcq by at
// most the LatchDuty·T a latch is opaque: per-lane exactness needs the
// initial settle to reach a fixpoint and latch event times to be
// monotone (the WaveSim comment says why).
func NewWave(c *netlist.Circuit, lib *celllib.Library, opts WaveOptions) (*WaveSim, error) {
	if opts.T <= 0 || opts.Cycles <= 0 {
		return nil, fmt.Errorf("sim: need positive period and cycle count")
	}
	if opts.Lanes < 1 || opts.Lanes > MaxLanes {
		return nil, fmt.Errorf("sim: lane count %d outside 1..%d", opts.Lanes, MaxLanes)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	delays := make([]float64, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		var err error
		if delays[n.ID], err = lib.Delay(n); err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
		if n.Kind == netlist.KindLatch && lib.Latch.Tdq-lib.Latch.Tcq > netlist.LatchDuty*opts.T {
			return nil, fmt.Errorf("sim: latch Tdq %g exceeds Tcq %g by more than the opaque %g of period %g",
				lib.Latch.Tdq, lib.Latch.Tcq, netlist.LatchDuty*opts.T, opts.T)
		}
	}
	k := laneWords(opts.Lanes)
	s := &WaveSim{
		lib:         lib,
		opts:        opts,
		k:           k,
		gates:       newGateTable(c),
		phase:       make([]float64, len(c.Nodes)),
		foStart:     make([]int32, len(c.Nodes)+1),
		inputs:      nodeIDs(c.Inputs()),
		inputIdx:    make([]int32, len(c.Nodes)),
		delays:      delays,
		vals:        make([]uint64, len(c.Nodes)*k),
		marked:      make([]bool, len(c.Nodes)),
		latchOpenAt: make([]float64, len(c.Nodes)),
		latchOpen:   make([]bool, len(c.Nodes)),
		traceRef:    make([][]uint64, len(c.Nodes)),
		trace:       BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
	}
	for i := range s.inputIdx {
		s.inputIdx[i] = -1
	}
	for i, id := range s.inputs {
		s.inputIdx[id] = int32(i)
	}
	for id, fo := range c.Fanouts() {
		for _, f := range fo {
			s.fos = append(s.fos, int32(f))
		}
		s.foStart[id+1] = int32(len(s.fos))
	}
	for _, n := range order {
		if n.Kind.IsCombinational() {
			s.comb = append(s.comb, int32(n.ID))
		}
	}
	for _, n := range c.Nodes {
		if n.Dead() {
			continue
		}
		id := int32(n.ID)
		s.phase[id] = n.Phase
		switch {
		case n.Kind == netlist.KindConst1:
			s.consts = append(s.consts, id)
		case n.Kind == netlist.KindDFF, n.Kind == netlist.KindLatch, n.Kind == netlist.KindOutput:
			s.clocked = append(s.clocked, id)
			row := make([]uint64, opts.Cycles*k)
			s.trace.Words[n.Name] = row
			s.traceRef[id] = row
		}
	}
	return s, nil
}

// val returns node id's k value words.
func (s *WaveSim) val(id int32) []uint64 {
	b := int(id) * s.k
	return s.vals[b : b+s.k : b+s.k]
}

// slot returns the value words of arena slot.
func (s *WaveSim) slot(slot int32) []uint64 {
	off := int(slot) * s.k
	return s.arena[off : off+s.k : off+s.k]
}

// alloc returns a free arena slot. Its words are stale: every caller
// writes all k of them.
func (s *WaveSim) alloc() int32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	n := len(s.arena)
	s.arena = slices.Grow(s.arena, s.k)[:n+s.k]
	return int32(n / s.k)
}

func (s *WaveSim) reset() {
	clear(s.vals)
	clear(s.latchOpen)
	clear(s.latchOpenAt)
	s.queue.reset()
	s.arena = s.arena[:0]
	s.freeSlots = s.freeSlots[:0]
	for _, row := range s.trace.Words {
		for i := range row {
			row[i] = 0
		}
	}
}

// Run simulates opts.Cycles cycles with packed stimulus words in the
// PackStimulus layout: stim[cycle][i*K : (i+1)*K] drives the i-th
// primary input (c.Inputs() order). Lanes beyond opts.Lanes must be
// zero. Run may be called repeatedly; buffers and the returned trace
// are reused, so the result is only valid until the next Run.
func (s *WaveSim) Run(stim [][]uint64) (*BitTrace, error) {
	if len(stim) < s.opts.Cycles {
		return nil, fmt.Errorf("sim: stimulus covers %d of %d cycles", len(stim), s.opts.Cycles)
	}
	for cyc, vec := range stim[:s.opts.Cycles] {
		if len(vec) != len(s.inputs)*s.k {
			return nil, fmt.Errorf("sim: cycle %d stimulus has %d words for %d inputs at K=%d", cyc, len(vec), len(s.inputs), s.k)
		}
	}
	s.start()
	horizon := float64(s.opts.Cycles)*s.opts.T + 10*s.opts.T
	for {
		key, ok := s.queue.next()
		if !ok || key.time > horizon {
			break
		}
		s.drain(key, stim)
	}
	return &s.trace, nil
}

// start returns the engine to its power-on state, settles it and
// schedules every clock action and input change of the run.
func (s *WaveSim) start() {
	s.reset()
	T := s.opts.T

	// Constants drive their value at time 0.
	for _, id := range s.consts {
		v := s.val(id)
		for w := range v {
			v[w] = ^uint64(0)
		}
	}

	// Settle initial combinational values in one topological pass. On
	// an acyclic circuit this is the fixpoint the scalar engine's
	// Gauss-Seidel passes reach, so every gate starts equal to its
	// function of its fanins.
	for _, id := range s.comb {
		s.gates.eval(id, s.vals, s.k, s.val(id))
	}

	// Schedule all clock actions and input changes up front, in the
	// scalar engine's push order so FIFO tie-breaks coincide per lane.
	for cyc := 0; cyc < s.opts.Cycles; cyc++ {
		base := float64(cyc) * T
		for _, id := range s.inputs {
			s.queue.push(base, evInput, wevent{node: id, cycle: int32(cyc), slot: -1})
		}
		for _, id := range s.clocked {
			e := wevent{node: id, cycle: int32(cyc), slot: -1}
			switch s.gates.kind(id) {
			case netlist.KindDFF:
				s.queue.push(base+s.phase[id]*T, evClock, e)
			case netlist.KindLatch:
				s.queue.push(base+s.phase[id]*T, evClock, e)
				e.open = true
				s.queue.push(base+s.phase[id]*T+netlist.LatchDuty*T, evClock, e)
			case netlist.KindOutput:
				s.queue.push(base+T, evClock, e)
			}
		}
	}
}

// drain commits every event queued under key, the key the queue's next
// has just popped, then flushes the nodes the commits touched.
func (s *WaveSim) drain(key qkey, stim [][]uint64) {
	for {
		e, ok := s.queue.take()
		if !ok {
			break
		}
		switch key.kind {
		case evInput:
			i := int(s.inputIdx[e.node]) * s.k
			s.setWords(e.node, stim[e.cycle][i:i+s.k:i+s.k])
		case evSignal:
			s.setWords(e.node, s.slot(e.slot))
			s.freeSlots = append(s.freeSlots, e.slot)
		case evClock:
			s.clockAction(key.time, &e)
		}
	}
	s.flush(key.time)
}

// flush schedules every node a commit under the key just drained
// touched, once, from the key's final committed state (the WaveSim
// comment says why that is exact): a gate's function of its fanins one
// gate delay later, an open latch's data input at max(now+Tdq,
// open+Tcq), the floor that keeps data arriving just after the opening
// edge from beating the edge's own response.
func (s *WaveSim) flush(now float64) {
	for _, id := range s.touched {
		s.marked[id] = false
		slot := s.alloc()
		v := s.slot(slot)
		t := now + s.delays[id]
		if s.gates.kind(id) == netlist.KindLatch {
			copy(v, s.val(s.gates.fanin0(id)))
			t = max(now+s.lib.Latch.Tdq, s.latchOpenAt[id]+s.lib.Latch.Tcq)
		} else {
			s.gates.eval(id, s.vals, s.k, v)
		}
		s.queue.push(t, evSignal, wevent{node: id, slot: slot})
	}
	s.touched = s.touched[:0]
}

// clockAction handles flip-flop edges, latch close/open edges and
// primary-output sampling, mirroring the scalar engine's evClock arm.
func (s *WaveSim) clockAction(now float64, e *wevent) {
	id := e.node
	switch s.gates.kind(id) {
	case netlist.KindDFF:
		s.respond(id, int(e.cycle), now+s.lib.FF.Tcq)
	case netlist.KindLatch:
		if e.open { // opening edge: propagate waiting data
			s.latchOpen[id] = true
			s.latchOpenAt[id] = now
			s.respond(id, int(e.cycle), now+s.lib.Latch.Tcq)
		} else {
			s.latchOpen[id] = false
		}
	case netlist.KindOutput:
		copy(s.traceRef[id][int(e.cycle)*s.k:], s.val(s.gates.fanin0(id)))
	}
}

// respond captures a sequential element's data input into the trace and
// schedules it as the element's output on every lane. Where the scalar
// engine would not push, because the lane's newest event already holds
// that value, the commit leaves the lane as it is.
func (s *WaveSim) respond(id int32, cycle int, at float64) {
	d := s.val(s.gates.fanin0(id))
	copy(s.traceRef[id][cycle*s.k:], d)
	slot := s.alloc()
	copy(s.slot(slot), d)
	s.queue.push(at, evSignal, wevent{node: id, slot: slot})
}

// setWords commits value words d to node id on every lane. If any lane
// flipped, it marks each combinational fanout and each open latch
// fanout for flush, once per key.
func (s *WaveSim) setWords(id int32, d []uint64) {
	v := s.val(id)
	d = d[:len(v)]
	var any uint64
	for w := range v {
		any |= v[w] ^ d[w]
		v[w] = d[w]
	}
	if any == 0 {
		return
	}
	for _, fo := range s.fos[s.foStart[id]:s.foStart[id+1]] {
		if s.marked[fo] {
			continue
		}
		if kind := s.gates.kind(fo); kind.IsCombinational() || kind == netlist.KindLatch && s.latchOpen[fo] {
			s.marked[fo] = true
			s.touched = append(s.touched, fo)
		}
	}
}
