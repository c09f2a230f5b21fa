package core

import (
	"fmt"

	"virtualsync/internal/netlist"
)

// Apply materializes the realized plan as a netlist: selected flip-flops
// are removed, gates take their discretized drives, and the planned buffer
// chains and sequential delay units are inserted on their edges. The
// result is a new circuit; the region's working copy is untouched.
func (p *Plan) Apply() (*netlist.Circuit, error) {
	r := p.R
	out := r.Work.Clone()
	out.Name = r.Work.Name + "_vsync"

	// 1. Discretized gate drives.
	for gi, gid := range r.Gates {
		out.Node(gid).Drive = p.GateDrive[gi]
	}

	// 2. Collapse the selected flip-flops onto their data inputs. A chain
	// of removed flip-flops collapses link by link, in any order.
	for _, id := range r.Removed {
		if err := out.Collapse(id, 0); err != nil {
			return nil, fmt.Errorf("core: apply: %v", err)
		}
	}

	// 3. Insert per-edge hardware: buffer chain first (nearest the
	// driver), then the sequential delay unit (nearest the consumer),
	// matching the model's signal order driver -> buffers -> unit -> pin.
	for ei, e := range r.Edges {
		dst := out.Node(e.DstNode)
		if dst == nil {
			return nil, fmt.Errorf("core: apply: edge %d consumer missing", ei)
		}
		if e.DstPin >= len(dst.Fanins) {
			return nil, fmt.Errorf("core: apply: edge %d pin %d out of range", ei, e.DstPin)
		}
		if got := dst.Fanins[e.DstPin]; got != e.SrcNode {
			return nil, fmt.Errorf("core: apply: edge %d expected driver %d at %q pin %d, found %d",
				ei, e.SrcNode, dst.Name, e.DstPin, got)
		}
		// Insert the unit first; buffers then land between the driver
		// and the unit, realizing driver -> buffers -> unit -> pin.
		target, pin := dst.ID, e.DstPin
		switch p.Unit[ei].Kind {
		case UnitFF:
			ff, err := out.InsertAtPin(fmt.Sprintf("vs_ff_%d", ei), netlist.KindDFF, dst.ID, e.DstPin)
			if err != nil {
				return nil, err
			}
			ff.Phase = p.Unit[ei].PhaseFrac
			target, pin = ff.ID, 0
		case UnitLatch:
			lt, err := out.InsertAtPin(fmt.Sprintf("vs_lt_%d", ei), netlist.KindLatch, dst.ID, e.DstPin)
			if err != nil {
				return nil, err
			}
			lt.Phase = p.Unit[ei].PhaseFrac
			target, pin = lt.ID, 0
		}
		for bi, drive := range p.Chain[ei] {
			b, err := out.InsertAtPin(fmt.Sprintf("vs_buf_%d_%d", ei, bi), netlist.KindBuf, target, pin)
			if err != nil {
				return nil, err
			}
			b.Drive = drive
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: apply: optimized circuit invalid: %v", err)
	}
	return out, nil
}
