package sim

import (
	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
	"virtualsync/internal/sta"
)

// Engine names reported by LaneReport.
const (
	EngineBitSim  = "bitsim"  // levelized zero-delay engine
	EngineWaveSim = "wavesim" // word-parallel continuous-time engine
)

// LaneReport summarizes one bit-parallel differential run.
type LaneReport struct {
	Lanes int
	K     int      // words per sample in the compared traces
	Mask  []uint64 // lanes that disagree anywhere past warmup
	// EngineA/EngineB name the engine each side ran on: EngineBitSim
	// when zero-delay semantics are provably exact for that circuit,
	// EngineWaveSim otherwise.
	EngineA, EngineB string
	TraceA, TraceB   *BitTrace
}

// FlaggedLanes counts the lanes the comparison flagged.
func (r *LaneReport) FlaggedLanes() int { return MaskLanes(r.Mask) }

// LaneStimulus builds per-lane scalar stimulus for c's inputs: lane 0
// uses seed itself (ResetStimulus semantics, so single-lane replays
// reproduce exactly), the rest use prng.LaneSeeds-derived seeds with
// the same reset prefix.
func LaneStimulus(c *netlist.Circuit, cycles, reset int, seed int64, lanes int) [][][]bool {
	out := make([][][]bool, lanes)
	for l, s := range prng.LaneSeeds(seed, lanes) {
		out[l] = ResetStimulus(c, cycles, reset, s)
	}
	return out
}

// settlesWithin reports whether every signal in c reaches its final
// value strictly before the capturing clock edge at period T: every live
// node's static-timing max arrival lies below T. That is the event
// engine's delay model: primary inputs change at the cycle base,
// flip-flop outputs at base+Tcq, and each gate adds its library delay.
// BitSimExact's structural test alone is necessary but not sufficient
// for zero-delay semantics on optimized circuits — VirtualSync removes
// flip-flops precisely so that logic waves span multiple periods while
// leaving only phase-0 DFFs behind. The small relative guard band
// rejects paths landing within float rounding of the edge; WaveSim is
// exact either way, so erring toward it only costs speed.
func settlesWithin(c *netlist.Circuit, lib *celllib.Library, T float64) bool {
	r, err := sta.Analyze(c, lib)
	if err != nil {
		return false
	}
	limit := T * (1 - 1e-9)
	settled := true
	c.Live(func(n *netlist.Node) {
		if r.MaxArrival[n.ID] >= limit {
			settled = false
		}
	})
	return settled
}

// laneEngine runs one circuit bit-parallel on the cheapest exact
// engine: the zero-delay BitSim when BitSimExact holds (every
// sequential element a phase-0 flip-flop) AND every path settles
// within one period (zero-delay and event semantics then provably
// coincide), the continuous-time WaveSim otherwise.
func laneEngine(c *netlist.Circuit, lib *celllib.Library, T float64, cycles, lanes int, words [][]uint64) (*BitTrace, string, error) {
	if BitSimExact(c) && settlesWithin(c, lib, T) {
		bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: lanes})
		if err != nil {
			return nil, "", err
		}
		tr, err := bs.Run(words)
		if err != nil {
			return nil, "", err
		}
		return tr, EngineBitSim, nil
	}
	ws, err := NewWave(c, lib, WaveOptions{T: T, Cycles: cycles, Lanes: lanes})
	if err != nil {
		return nil, "", err
	}
	tr, err := ws.Run(words)
	if err != nil {
		return nil, "", err
	}
	return tr, EngineWaveSim, nil
}

// VerifyEquivalenceLanes runs both circuits bit-parallel over the given
// per-lane stimulus — each side on the cheapest engine that is exact
// for it — and compares every common flip-flop and primary output from
// cycle warmup onward, returning the per-lane disagreement mask. Both
// circuits must have the same primary inputs, and every lane must have
// identical cycle count and input width.
//
// The traces in the report alias the engines' internal buffers and are
// valid until those engines run again; VerifyEquivalenceLanes builds
// fresh engines per call, so for its callers they stay valid.
func VerifyEquivalenceLanes(a, b *netlist.Circuit, lib *celllib.Library, Ta, Tb float64, warmup int, stims [][][]bool) (*LaneReport, error) {
	if err := sameInputs(a, b); err != nil {
		return nil, err
	}
	words, err := PackStimulus(stims)
	if err != nil {
		return nil, err
	}
	lanes := len(stims)
	cycles := len(stims[0])
	ta, ea, err := laneEngine(a, lib, Ta, cycles, lanes, words)
	if err != nil {
		return nil, err
	}
	tb, eb, err := laneEngine(b, lib, Tb, cycles, lanes, words)
	if err != nil {
		return nil, err
	}
	return &LaneReport{
		Lanes:   lanes,
		K:       laneWords(lanes),
		Mask:    CompareBitTraces(ta, tb, warmup),
		EngineA: ea,
		EngineB: eb,
		TraceA:  ta,
		TraceB:  tb,
	}, nil
}
