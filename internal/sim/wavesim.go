package sim

import (
	"fmt"

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
// Exactness per lane is by construction, not approximation. Event
// *times* in the transport-delay model depend only on the commit time
// of the cause and a per-node delay, never on logic values, so the set
// of instants at which lane l's scalar engine would commit a change is
// a subset of the word engine's instants. Each word event additionally
// carries a lane *mask* of the lanes whose value actually changed at
// its cause (the lanes for which the scalar engine would have scheduled
// that event); commits apply only masked lanes, gate outputs are
// evaluated at schedule time from the committed word state exactly as
// the scalar engine evaluates at schedule time, and the queue ordering
// (time, kind, FIFO) is preserved because merged events are pushed in
// the same causal order as their scalar counterparts. Lane l of a
// WaveSim run therefore reproduces the scalar engine's committed value
// trajectory — including glitches — bit for bit; the differential
// tests and FuzzWaveBitSimAgainstEventSim pin this.
//
// The per-lane pending projection (used to suppress redundant
// flip-flop/latch response events) relies on per-node event times being
// monotone nondecreasing — each push's time is its cause's commit time
// plus a fixed or floored positive delay — so the newest push is the
// latest pending event for every lane it masks.
type WaveSim struct {
	c    *netlist.Circuit
	lib  *celllib.Library
	opts WaveOptions
	k    int // words per value

	inputs   []*netlist.Node
	inputIdx []int32 // node -> index in inputs, -1 otherwise
	delays   []float64
	fanouts  [][]netlist.NodeID

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

	latchOpenAt []float64
	latchOpen   []bool

	traceRef [][]uint64 // per-node alias into trace.Words (nil if untraced)
	trace    BitTrace
	changed  []uint64 // k scratch words: lanes changed by a commit
	maskBuf  []uint64 // k scratch words: schedule-time suppression mask
	stim     [][]uint64
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
	node  netlist.NodeID
	cycle int32
	slot  int32
	open  bool
}

// NewWave prepares a word-parallel continuous-time simulator. The
// circuit must be structurally valid; any circuit the scalar engine
// accepts is accepted here.
func NewWave(c *netlist.Circuit, lib *celllib.Library, opts WaveOptions) (*WaveSim, error) {
	if opts.T <= 0 || opts.Cycles <= 0 {
		return nil, fmt.Errorf("sim: need positive period and cycle count")
	}
	if opts.Lanes < 1 || opts.Lanes > MaxLanes {
		return nil, fmt.Errorf("sim: lane count %d outside 1..%d", opts.Lanes, MaxLanes)
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
		c:           c,
		lib:         lib,
		opts:        opts,
		k:           k,
		inputs:      c.Inputs(),
		inputIdx:    make([]int32, len(c.Nodes)),
		delays:      delays,
		fanouts:     c.Fanouts(),
		vals:        make([]uint64, len(c.Nodes)*k),
		projVal:     make([]uint64, len(c.Nodes)*k),
		projMask:    make([]uint64, len(c.Nodes)*k),
		pendCount:   make([]int32, len(c.Nodes)),
		latchOpenAt: make([]float64, len(c.Nodes)),
		latchOpen:   make([]bool, len(c.Nodes)),
		traceRef:    make([][]uint64, len(c.Nodes)),
		trace:       BitTrace{Lanes: opts.Lanes, K: k, Words: make(map[string][]uint64)},
		changed:     make([]uint64, k),
		maskBuf:     make([]uint64, k),
	}
	for i := range s.inputIdx {
		s.inputIdx[i] = -1
	}
	for i, in := range s.inputs {
		s.inputIdx[in.ID] = int32(i)
	}
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

func (s *WaveSim) val(id netlist.NodeID) []uint64 {
	return s.vals[int(id)*s.k : int(id)*s.k+s.k]
}

func (s *WaveSim) slotVal(slot int32) []uint64 {
	off := int(slot) * 2 * s.k
	return s.arena[off : off+s.k]
}

func (s *WaveSim) slotMask(slot int32) []uint64 {
	off := int(slot)*2*s.k + s.k
	return s.arena[off : off+s.k]
}

func (s *WaveSim) alloc() int32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	slot := int32(len(s.arena) / (2 * s.k))
	for i := 0; i < 2*s.k; i++ {
		s.arena = append(s.arena, 0)
	}
	return slot
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
	s.reset()
	s.stim = stim
	T := s.opts.T

	// Constants drive their value at time 0.
	for _, n := range s.c.Nodes {
		if !n.Dead() && n.Kind == netlist.KindConst1 {
			v := s.val(n.ID)
			for w := range v {
				v[w] = ^uint64(0)
			}
		}
	}

	// Settle initial combinational values, mirroring the scalar
	// engine's bounded Gauss-Seidel passes in node order. Lanes settle
	// independently (gate evaluation is lanewise), and a lane that has
	// reached its fixpoint is untouched by further passes, so the
	// per-lane end states match the scalar engine's.
	for pass := 0; pass < len(s.c.Nodes)+2; pass++ {
		changedAny := false
		for _, n := range s.c.Nodes {
			if n.Dead() || !n.Kind.IsCombinational() {
				continue
			}
			evalGateWords(n, s.vals, s.k, s.maskBuf)
			v := s.val(n.ID)
			for w := range v {
				if v[w] != s.maskBuf[w] {
					v[w] = s.maskBuf[w]
					changedAny = true
				}
			}
		}
		if !changedAny {
			break
		}
	}

	// Schedule all clock actions and input changes up front, in the
	// scalar engine's push order so FIFO tie-breaks coincide per lane.
	for cyc := 0; cyc < s.opts.Cycles; cyc++ {
		base := float64(cyc) * T
		for _, in := range s.inputs {
			s.push(base, evInput, wevent{node: in.ID, cycle: int32(cyc), slot: -1})
		}
		for _, n := range s.c.Nodes {
			if n.Dead() {
				continue
			}
			switch n.Kind {
			case netlist.KindDFF:
				s.push(base+n.Phase*T, evClock, wevent{node: n.ID, cycle: int32(cyc), slot: -1})
			case netlist.KindLatch:
				open := base + n.Phase*T + netlist.LatchDuty*T
				s.push(base+n.Phase*T, evClock, wevent{node: n.ID, cycle: int32(cyc), slot: -1, open: false})
				s.push(open, evClock, wevent{node: n.ID, cycle: int32(cyc), slot: -1, open: true})
			case netlist.KindOutput:
				s.push(base+T, evClock, wevent{node: n.ID, cycle: int32(cyc), slot: -1})
			}
		}
	}

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
			switch key.kind {
			case evInput:
				i := int(s.inputIdx[e.node])
				d := stim[e.cycle][i*s.k : (i+1)*s.k]
				s.setWords(e.node, d, nil, key.time)
			case evSignal:
				s.popped(e.node)
				s.setWords(e.node, s.slotVal(e.slot), s.slotMask(e.slot), key.time)
				s.freeSlots = append(s.freeSlots, e.slot)
			case evClock:
				s.clockAction(key.time, &e)
			}
		}
	}
	s.stim = nil
	return &s.trace, nil
}

// clockAction handles flip-flop edges, latch close/open edges and
// primary-output sampling, mirroring the scalar engine's evClock arm.
func (s *WaveSim) clockAction(now float64, e *wevent) {
	n := s.c.Node(e.node)
	switch n.Kind {
	case netlist.KindDFF:
		s.respond(n, int(e.cycle), now+s.lib.FF.Tcq)
	case netlist.KindLatch:
		if e.open { // opening edge: propagate waiting data
			s.latchOpen[n.ID] = true
			s.latchOpenAt[n.ID] = now
			s.respond(n, int(e.cycle), now+s.lib.Latch.Tcq)
		} else {
			s.latchOpen[n.ID] = false
		}
	case netlist.KindOutput:
		copy(s.traceRef[n.ID][int(e.cycle)*s.k:], s.val(n.Fanins[0]))
	}
}

// respond captures a sequential element's data input into the trace and
// schedules its output response for the lanes where the projected
// output differs — the lanes for which the scalar engine would push.
func (s *WaveSim) respond(n *netlist.Node, cycle int, at float64) {
	d := s.val(n.Fanins[0])
	copy(s.traceRef[n.ID][cycle*s.k:], d)
	base := int(n.ID) * s.k
	any := false
	for w := 0; w < s.k; w++ {
		proj := (s.vals[base+w] &^ s.projMask[base+w]) | (s.projVal[base+w] & s.projMask[base+w])
		s.maskBuf[w] = d[w] ^ proj
		if s.maskBuf[w] != 0 {
			any = true
		}
	}
	if !any {
		return
	}
	slot := s.alloc()
	copy(s.slotVal(slot), d)
	copy(s.slotMask(slot), s.maskBuf)
	s.push(at, evSignal, wevent{node: n.ID, slot: slot})
}

// push queues an event and folds signal events into the per-lane
// pending projection.
func (s *WaveSim) push(t float64, kind eventKind, e wevent) {
	s.queue.push(t, kind, e)
	if kind != evSignal {
		return
	}
	s.pendCount[e.node]++
	base := int(e.node) * s.k
	v, m := s.slotVal(e.slot), s.slotMask(e.slot)
	for w := 0; w < s.k; w++ {
		s.projVal[base+w] = (s.projVal[base+w] &^ m[w]) | (v[w] & m[w])
		s.projMask[base+w] |= m[w]
	}
}

// popped updates the pending projection when a signal event for id
// leaves the queue. A lane whose last pending event has committed keeps
// its projMask bit until the node's count drains, but its projected
// value then equals the committed value, so the projection stays
// consistent.
func (s *WaveSim) popped(id netlist.NodeID) {
	if s.pendCount[id] > 0 {
		s.pendCount[id]--
		if s.pendCount[id] == 0 {
			base := int(id) * s.k
			for w := 0; w < s.k; w++ {
				s.projMask[base+w] = 0
			}
		}
	}
}

// setWords commits a masked value change and propagates to fanouts. A
// nil mask means all lanes (primary-input changes). Only lanes whose
// value actually flips propagate: downstream events carry that changed
// set as their mask, so lanes the scalar engine would not have touched
// are never affected.
func (s *WaveSim) setWords(id netlist.NodeID, d, mask []uint64, now float64) {
	base := int(id) * s.k
	any := false
	for w := 0; w < s.k; w++ {
		ch := s.vals[base+w] ^ d[w]
		if mask != nil {
			ch &= mask[w]
		}
		s.changed[w] = ch
		if ch != 0 {
			s.vals[base+w] ^= ch
			any = true
		}
	}
	if !any {
		return
	}
	for _, fo := range s.fanouts[id] {
		n := s.c.Node(fo)
		switch {
		case n.Kind.IsCombinational():
			slot := s.alloc()
			evalGateWords(n, s.vals, s.k, s.slotVal(slot))
			copy(s.slotMask(slot), s.changed)
			s.push(now+s.delays[n.ID], evSignal, wevent{node: n.ID, slot: slot})
		case n.Kind == netlist.KindLatch:
			if !s.latchOpen[n.ID] {
				break
			}
			t := now + s.lib.Latch.Tdq
			if min := s.latchOpenAt[n.ID] + s.lib.Latch.Tcq; t < min {
				t = min
			}
			slot := s.alloc()
			copy(s.slotVal(slot), s.vals[base:base+s.k])
			copy(s.slotMask(slot), s.changed)
			s.push(t, evSignal, wevent{node: n.ID, slot: slot})
		}
	}
}
