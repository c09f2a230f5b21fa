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
// a change are among the word engine's instants. Each word event
// carries a lane *mask* of the lanes whose cause actually changed, and
// commits apply only masked lanes. A gate's value at the end of an
// instant is its function of its fanins at the end of the instant one
// gate delay earlier: the scalar engine schedules the gate at every
// fanin commit and the last of those events carries that value, the
// earlier ones being zero-width glitches. WaveSim schedules it once
// per drained queue key instead (flush), from the key's final state,
// for the union of the lanes its fanins changed. An open latch still
// passes each commit of its data input on, as in the scalar engine,
// and ends an instant on its input's last value. Clock actions sort
// before input and signal commits at an instant, so every flip-flop,
// latch and output sample reads a settled instant, never a glitch.
// What WaveSim does not reproduce is the zero-width glitches
// themselves. The argument needs every gate to start equal to its
// function of its fanins, so NewWave rejects combinational cycles and
// the initial settle is one topological pass. The differential tests,
// FuzzWaveSimAgainstEventSim and FuzzWaveBitSimAgainstEventSim hold
// every lane to the scalar engine from cycle 0.
//
// The per-lane pending projection (used to suppress redundant
// flip-flop/latch response events) relies on per-node event times being
// monotone nondecreasing — each push's time is its cause's commit time
// plus a fixed or floored positive delay — so the newest push is the
// latest pending event for every lane it masks.
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

	vals      []uint64 // current value words, k per node
	projVal   []uint64 // value after pending commits, k per node (valid where projMask set)
	projMask  []uint64 // lanes with >=1 pending signal event, k per node
	pendCount []int32  // pending signal events per node

	queue eventQueue[wevent]

	// arena backs event value+mask words: 2k words per slot (value,
	// then mask), recycled through freeSlots. Slices into it are never
	// retained across an alloc (which may grow the backing array).
	arena     []uint64
	freeSlots []int32

	// evalSlot holds, per gate, the arena slot of its evaluation
	// pending in the key being drained (-1 when none): the slot's mask
	// words accumulate the lanes its fanins changed, and flush evaluates
	// it once. touched lists those gates in first-touch order.
	evalSlot []int32
	touched  []int32

	latchOpenAt []float64
	latchOpen   []bool

	traceRef [][]uint64 // per-node alias into trace.Words (nil if untraced)
	trace    BitTrace
	changed  []uint64 // k scratch words: lanes changed by a commit
	maskBuf  []uint64 // k scratch words: respond's mask
}

// WaveOptions configures a word-parallel continuous-time run.
type WaveOptions struct {
	T      float64 // clock period
	Cycles int     // number of clock cycles to simulate
	Lanes  int     // meaningful stimulus lanes, 1..MaxLanes
}

// wevent mirrors the scalar engine's event payload, with the bool value
// replaced by an arena slot holding k value words and k mask words.
// For latch clock events open distinguishes the opening edge.
type wevent struct {
	node  int32
	cycle int32
	slot  int32
	open  bool
}

// NewWave prepares a word-parallel continuous-time simulator. The
// circuit must be structurally valid and free of combinational cycles:
// per-instant exactness needs the initial settle to reach a fixpoint.
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
		projVal:     make([]uint64, len(c.Nodes)*k),
		projMask:    make([]uint64, len(c.Nodes)*k),
		pendCount:   make([]int32, len(c.Nodes)),
		evalSlot:    make([]int32, len(c.Nodes)),
		latchOpenAt: make([]float64, len(c.Nodes)),
		latchOpen:   make([]bool, len(c.Nodes)),
		traceRef:    make([][]uint64, len(c.Nodes)),
		trace:       BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
		changed:     make([]uint64, k),
		maskBuf:     make([]uint64, k),
	}
	for i := range s.inputIdx {
		s.inputIdx[i] = -1
		s.evalSlot[i] = -1
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

// slot returns the value and mask words of arena slot.
func (s *WaveSim) slot(slot int32) (v, m []uint64) {
	k := s.k
	off := int(slot) * 2 * k
	return s.arena[off : off+k : off+k], s.arena[off+k : off+2*k : off+2*k]
}

// alloc returns a free arena slot. Its words are stale: every caller
// writes all 2k of them.
func (s *WaveSim) alloc() int32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	n := len(s.arena)
	s.arena = slices.Grow(s.arena, 2*s.k)[:n+2*s.k]
	return int32(n / (2 * s.k))
}

func (s *WaveSim) reset() {
	for i := range s.vals {
		s.vals[i] = 0
		s.projVal[i] = 0
		s.projMask[i] = 0
	}
	for i := range s.pendCount {
		s.pendCount[i] = 0
		s.latchOpen[i] = false
		s.latchOpenAt[i] = 0
	}
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
// has just popped, then flushes the gate evaluations the commits
// touched.
func (s *WaveSim) drain(key qkey, stim [][]uint64) {
	for {
		e, ok := s.queue.take()
		if !ok {
			break
		}
		switch key.kind {
		case evInput:
			i := int(s.inputIdx[e.node]) * s.k
			s.setWords(e.node, stim[e.cycle][i:i+s.k:i+s.k], nil, key.time)
		case evSignal:
			s.popped(e.node)
			v, m := s.slot(e.slot)
			s.setWords(e.node, v, m, key.time)
			s.freeSlots = append(s.freeSlots, e.slot)
		case evClock:
			s.clockAction(key.time, &e)
		}
	}
	s.flush(key.time)
}

// flush evaluates every gate whose fanins changed under the key just
// drained, once, from the key's final committed state, and schedules
// one event for the union of the lanes that changed (the WaveSim
// comment says why that is exact).
func (s *WaveSim) flush(now float64) {
	for _, id := range s.touched {
		slot := s.evalSlot[id]
		s.evalSlot[id] = -1
		v, m := s.slot(slot)
		s.gates.eval(id, s.vals, s.k, v)
		s.push(now+s.delays[id], id, slot, m)
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
// schedules its output response for the lanes where the projected
// output differs — the lanes for which the scalar engine would push.
func (s *WaveSim) respond(id int32, cycle int, at float64) {
	d := s.val(s.gates.fanin0(id))
	copy(s.traceRef[id][cycle*s.k:], d)
	b := int(id) * s.k
	v := s.vals[b : b+s.k : b+s.k]
	pv, pm, m := s.projVal[b:b+s.k:b+s.k], s.projMask[b:b+s.k:b+s.k], s.maskBuf[:s.k:s.k]
	d, pv, pm, m = d[:len(v)], pv[:len(v)], pm[:len(v)], m[:len(v)]
	var any uint64
	for w := range v {
		m[w] = d[w] ^ ((v[w] &^ pm[w]) | (pv[w] & pm[w]))
		any |= m[w]
	}
	if any == 0 {
		return
	}
	slot := s.alloc()
	sv, _ := s.slot(slot)
	copy(sv, d)
	s.push(at, id, slot, m)
}

// push queues a signal event for id whose value words are already in
// slot: it writes mask m (which may be the slot's own mask words) into
// the slot's mask words and folds the event into the per-lane pending
// projection in the same pass.
func (s *WaveSim) push(t float64, id, slot int32, m []uint64) {
	s.queue.push(t, evSignal, wevent{node: id, slot: slot})
	s.pendCount[id]++
	b := int(id) * s.k
	pv, pm := s.projVal[b:b+s.k:b+s.k], s.projMask[b:b+s.k:b+s.k]
	v, sm := s.slot(slot)
	v, sm, pm, m = v[:len(pv)], sm[:len(pv)], pm[:len(pv)], m[:len(pv)]
	for w := range pv {
		mw := m[w]
		sm[w] = mw
		pv[w] = (pv[w] &^ mw) | (v[w] & mw)
		pm[w] |= mw
	}
}

// popped updates the pending projection when a signal event for id
// leaves the queue. A lane whose last pending event has committed keeps
// its projMask bit until the node's count drains, but its projected
// value then equals the committed value, so the projection stays
// consistent.
func (s *WaveSim) popped(id int32) {
	if s.pendCount[id] > 0 {
		s.pendCount[id]--
		if s.pendCount[id] == 0 {
			b := int(id) * s.k
			clear(s.projMask[b : b+s.k : b+s.k])
		}
	}
}

// setWords commits a masked value change and propagates to fanouts. A
// nil mask means all lanes (primary-input changes). Only lanes whose
// value actually flips propagate: a combinational fanout ORs that
// changed set into the mask of its pending evaluation, which flush
// schedules once the key drains, and an open latch fanout is scheduled
// at once under that mask, so lanes the scalar engine would not have
// touched are never affected.
func (s *WaveSim) setWords(id int32, d, mask []uint64, now float64) {
	k := s.k
	b := int(id) * k
	v := s.vals[b : b+k : b+k]
	ch := s.changed[:len(v)]
	d = d[:len(v)]
	var any uint64
	if mask == nil {
		for w := range v {
			c := v[w] ^ d[w]
			ch[w] = c
			v[w] = d[w]
			any |= c
		}
	} else {
		mask = mask[:len(v)]
		for w := range v {
			c := (v[w] ^ d[w]) & mask[w]
			ch[w] = c
			v[w] ^= c
			any |= c
		}
	}
	if any == 0 {
		return
	}
	for _, fo := range s.fos[s.foStart[id]:s.foStart[id+1]] {
		kind := s.gates.kind(fo)
		switch {
		case kind.IsCombinational():
			slot := s.evalSlot[fo]
			if slot < 0 {
				slot = s.alloc()
				s.evalSlot[fo] = slot
				s.touched = append(s.touched, fo)
				_, m := s.slot(slot)
				copy(m, ch)
				break
			}
			_, m := s.slot(slot)
			m = m[:len(ch)]
			for w := range m {
				m[w] |= ch[w]
			}
		case kind == netlist.KindLatch:
			if !s.latchOpen[fo] {
				break
			}
			t := now + s.lib.Latch.Tdq
			if min := s.latchOpenAt[fo] + s.lib.Latch.Tcq; t < min {
				t = min
			}
			slot := s.alloc()
			sv, _ := s.slot(slot)
			copy(sv, v)
			s.push(t, fo, slot, ch)
		}
	}
}
