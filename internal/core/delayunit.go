// Package core implements the VirtualSync timing model and optimization
// flow (DAC 2018): flip-flops inside a circuit's critical part are removed
// and the minimum set of delay units — buffers, flip-flops and latches —
// is re-inserted so that every signal still reaches the boundary
// flip-flops in its original clock cycle, while the clock period drops
// below the retiming&sizing limit.
package core

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
