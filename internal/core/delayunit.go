// Package core implements the VirtualSync timing model and optimization
// flow (DAC 2018): flip-flops inside a circuit's critical part are removed
// and the minimum set of delay units — buffers, flip-flops and latches —
// is re-inserted so that every signal still reaches the boundary
// flip-flops in its original clock cycle, while the clock period drops
// below the retiming&sizing limit.
package core

import (
	"math"

	"virtualsync/internal/netlist"
)

// UnitKind is the sequential delay unit placed on an edge, if any. The
// paper's third delay unit, the buffer, is every edge's chain (Plan.Chain),
// not a kind.
type UnitKind int

// Delay-unit kinds.
const (
	UnitNone UnitKind = iota
	UnitFF
	UnitLatch
)

func (k UnitKind) String() string {
	switch k {
	case UnitNone:
		return "none"
	case UnitFF:
		return "ff"
	case UnitLatch:
		return "latch"
	}
	return "unit?"
}

// UnitTiming bundles the parameters needed to evaluate a delay unit's
// transfer characteristic.
type UnitTiming struct {
	T     float64 // clock period
	Phi   float64 // phase shift of the unit's clock, absolute time in [0,T)
	Tcq   float64 // clock-to-q
	Tdq   float64 // data-to-q (latch, transparent)
	Tsu   float64 // setup time
	Th    float64 // hold time
	Delay float64 // combinational delay (buffer unit)
}

// BufferOut is the transfer characteristic of a combinational delay unit
// (paper Fig. 2(a)): the output arrival is linear in the input arrival, so
// the gap between two signals is preserved.
func (u UnitTiming) BufferOut(in float64) float64 { return in + u.Delay }

// FFOut is the transfer characteristic of a flip-flop delay unit (paper
// Fig. 2(b)): any input arriving within the legal window [N*T+phi+th,
// (N+1)*T+phi-tsu] leaves at (N+1)*T+phi+tcq, collapsing arrival-time gaps
// to zero. ok reports whether the input falls in a legal window; N is the
// window index.
func (u UnitTiming) FFOut(in float64) (out float64, n int, ok bool) {
	// Find the window containing in: N*T+phi+th <= in <= (N+1)*T+phi-tsu.
	nf := math.Floor((in - u.Phi - u.Th) / u.T)
	n = int(nf)
	lo := nf*u.T + u.Phi + u.Th
	hi := (nf+1)*u.T + u.Phi - u.Tsu
	if in < lo-1e-9 || in > hi+1e-9 {
		return 0, n, false
	}
	return (nf+1)*u.T + u.Phi + u.Tcq, n, true
}

// LatchOut is the transfer characteristic of a level-sensitive latch
// (paper Fig. 2(c)): non-transparent in the first D-less part of the
// period, transparent afterwards. Inputs arriving while the latch is
// closed leave at the opening edge plus tcq; inputs arriving while it is
// transparent flow through after tdq. ok reports a legal arrival
// (respecting hold after the closing edge and setup before it).
func (u UnitTiming) LatchOut(in float64) (out float64, n int, ok bool) {
	nf := math.Floor((in - u.Phi - u.Th) / u.T)
	n = int(nf)
	lo := nf*u.T + u.Phi + u.Th
	hi := (nf+1)*u.T + u.Phi - u.Tsu
	if in < lo-1e-9 || in > hi+1e-9 {
		return 0, n, false
	}
	open := nf*u.T + u.Phi + netlist.LatchDuty*u.T
	// While non-transparent the data waits for the opening edge; in the
	// transparent phase it flows through after tdq, but never before the
	// opening-edge response itself has propagated — this keeps the
	// transfer characteristic monotone at the opening boundary.
	return math.Max(open+u.Tcq, in+u.Tdq), n, true
}
