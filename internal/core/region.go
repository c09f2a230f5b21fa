package core

import (
	"fmt"
	"sync"

	"virtualsync/internal/celllib"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sta"
)

// RefKind tags the endpoint of a region edge.
type RefKind int

// Region node reference kinds.
const (
	RefGate RefKind = iota
	RefSource
	RefSink
)

// NodeRef identifies a region node: a gate (by index into Region.Gates), a
// source (index into Region.Sources) or a sink (index into Region.Sinks).
type NodeRef struct {
	Kind RefKind
	Idx  int
}

// Source is a launch point at the region boundary: a boundary flip-flop's
// Q output, a primary input, a constant, or a combinational gate outside
// the anchor-affected cone (whose arrival times are classic STA constants
// because nothing upstream of it changes).
type Source struct {
	Node netlist.NodeID
	IsFF bool

	// Fixed marks a classic-timing gate source; LateArr/EarlyArr are its
	// unguarded baseline arrival times (guard bands applied by the model).
	Fixed    bool
	LateArr  float64
	EarlyArr float64
}

// Sink is a capture point at the region boundary: a boundary flip-flop's D
// input or a primary output.
type Sink struct {
	Node netlist.NodeID
	IsFF bool
}

// Edge is a region connection from a gate/source output to a gate input or
// sink. Lambda counts the removed (anchor) flip-flops along the original
// connection; every signal crossing the edge is re-referenced by
// subtracting Lambda*T (paper Section 4.2). Buffers and at most one
// sequential delay unit may be inserted on the edge during optimization.
type Edge struct {
	From   NodeRef
	To     NodeRef
	Lambda int

	// Physical wiring in the working circuit, used when materializing the
	// optimized netlist: DstNode's fanin DstPin leads (through removed
	// flip-flops) to SrcNode.
	SrcNode netlist.NodeID
	DstNode netlist.NodeID
	DstPin  int
}

// Region is the critical part of a circuit prepared for VirtualSync
// optimization: its gates, boundary sources/sinks, anchor-annotated edges
// and the flip-flops scheduled for removal.
type Region struct {
	Work *netlist.Circuit
	Lib  *celllib.Library

	Gates   []netlist.NodeID
	GateIdx map[netlist.NodeID]int
	Sources []Source
	Sinks   []Sink
	Edges   []Edge
	Removed []netlist.NodeID

	removedSet map[netlist.NodeID]bool

	// sched is the wave validator's sweep plan over Gates and Edges.
	sched *schedule

	// Baseline is the STA of the working circuit before optimization.
	Baseline *sta.Result

	// ExternalPeriod is the minimum clock period required by the logic
	// outside the region, which VirtualSync leaves untouched: the target
	// period can never drop below it (unguarded; apply the ru margin for
	// comparisons with model targets).
	ExternalPeriod float64

	// solver accumulates LP/MIP work counters over every solveSpec call
	// on this region (all pipeline phases, retargets and discretization
	// repair solves). statsMu keeps the accounting safe if callers ever
	// drive region solves from more than one goroutine.
	statsMu sync.Mutex
	solver  lp.Stats
}

// SolverStats returns a snapshot of the LP/MIP work counters accumulated
// across every solve performed on this region so far.
func (r *Region) SolverStats() lp.Stats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.solver
}

// addSolverStats folds one solution's counters into the region totals.
func (r *Region) addSolverStats(sol *lp.Solution) {
	if sol == nil {
		return
	}
	r.statsMu.Lock()
	r.solver.Add(sol.Stats)
	r.statsMu.Unlock()
}

// Extract identifies the critical part of the circuit following the
// paper's methodology: combinational paths within selectFrac of the
// largest register-to-register delay (paper: 0.95) are selected, their
// source and sink flip-flops become removable, every other flip-flop is
// a boundary, and the region is closed over combinational connectivity
// so no removed flip-flop or region gate has timing consequences outside
// the region.
func Extract(c *netlist.Circuit, lib *celllib.Library, selectFrac float64) (*Region, error) {
	if selectFrac <= 0 || selectFrac > 1 {
		return nil, fmt.Errorf("core: SelectFrac %g out of (0,1]", selectFrac)
	}
	if len(c.Latches()) > 0 {
		return nil, fmt.Errorf("core: input circuit already contains latches")
	}
	work := c.Clone()
	base, err := sta.Analyze(work, lib)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	removed := selectRemovable(work, lib, base, selectFrac)
	if len(removed) == 0 {
		return nil, fmt.Errorf("core: no flip-flops selected at fraction %g", selectFrac)
	}
	return buildRegion(work, lib, base, removed)
}

// selectRemovable picks the removable flip-flops: endpoints of paths
// within frac of the largest register-to-register delay (step 1 of the
// paper's critical-part selection). The result follows FlipFlops order,
// which is deterministic, so selections on timing-equivalent circuits
// compare element-wise.
func selectRemovable(work *netlist.Circuit, lib *celllib.Library, base *sta.Result, frac float64) []netlist.NodeID {
	thresh := frac * base.MinPeriod
	var removed []netlist.NodeID
	for _, ff := range work.FlipFlops() {
		into := base.MaxArrival[ff.Fanins[0]] + lib.FF.Tsu
		from := base.WorstPathThrough(ff.ID) // tcq + downstream (incl. capture tsu)
		if into >= thresh-1e-9 || from >= thresh-1e-9 {
			removed = append(removed, ff.ID)
		}
	}
	return removed
}

// buildRegion closes the critical part over combinational connectivity
// given the removal selection (steps 2-6), producing the gate set, the
// boundary sources and sinks, the anchor-annotated edges and the
// external-period requirement. work becomes the region's working
// circuit; base must be its analysis.
func buildRegion(work *netlist.Circuit, lib *celllib.Library, base *sta.Result, removed []netlist.NodeID) (*Region, error) {
	r := &Region{
		Work:       work,
		Lib:        lib,
		GateIdx:    make(map[netlist.NodeID]int),
		Removed:    removed,
		removedSet: make(map[netlist.NodeID]bool, len(removed)),
		Baseline:   base,
	}
	for _, id := range removed {
		r.removedSet[id] = true
	}

	// 2. Region gates: the anchor-affected cone — every combinational
	// gate downstream of a removed flip-flop (through other removed
	// flip-flops). Arrival times change only there; gates outside the
	// cone keep their classic timing and enter the model as fixed-arrival
	// sources, while endpoints outside the region are covered by the
	// ExternalPeriod requirement. The cone is downstream-closed, so
	// region re-sizing never disturbs external timing.
	fanouts := work.Fanouts()
	affected := make(map[netlist.NodeID]bool)
	grown := make(map[netlist.NodeID]bool)
	var grow func(id netlist.NodeID)
	grow = func(id netlist.NodeID) {
		for _, reader := range fanouts[id] {
			rn := work.Node(reader)
			switch {
			case rn.Kind.IsCombinational():
				if !affected[reader] {
					affected[reader] = true
					grow(reader)
				}
			case rn.Kind == netlist.KindDFF && r.removedSet[reader]:
				// grown guards against rings of removed flip-flops (e.g. a
				// register-only feedback loop): without it the walk recurses
				// forever; traceBack rejects such rings with a proper error
				// later.
				if !grown[reader] {
					grown[reader] = true
					grow(reader)
				}
			}
		}
	}
	for _, id := range r.Removed {
		grow(id)
	}
	work.Live(func(n *netlist.Node) {
		if affected[n.ID] {
			r.GateIdx[n.ID] = len(r.Gates)
			r.Gates = append(r.Gates, n.ID)
		}
	})

	// 4. Build edges.
	sourceIdx := make(map[netlist.NodeID]int)
	sinkIdx := make(map[netlist.NodeID]int)
	addSource := func(id netlist.NodeID) int {
		if i, ok := sourceIdx[id]; ok {
			return i
		}
		n := work.Node(id)
		s := Source{Node: id, IsFF: n.Kind == netlist.KindDFF}
		if n.Kind.IsCombinational() {
			s.Fixed = true
			s.LateArr = base.MaxArrival[id]
			s.EarlyArr = base.MinArrival[id]
		}
		sourceIdx[id] = len(r.Sources)
		r.Sources = append(r.Sources, s)
		return len(r.Sources) - 1
	}
	addSink := func(id netlist.NodeID) int {
		if i, ok := sinkIdx[id]; ok {
			return i
		}
		n := work.Node(id)
		sinkIdx[id] = len(r.Sinks)
		r.Sinks = append(r.Sinks, Sink{Node: id, IsFF: n.Kind == netlist.KindDFF})
		return len(r.Sinks) - 1
	}

	// traceBack follows a fanin through *removed* flip-flops only.
	traceBack := func(id netlist.NodeID) (netlist.NodeID, int, error) {
		lambda := 0
		cur := work.Node(id)
		for steps := 0; ; steps++ {
			if steps > len(work.Nodes) {
				return 0, 0, fmt.Errorf("core: removed-flip-flop cycle at %q", cur.Name)
			}
			if cur.Kind == netlist.KindDFF && r.removedSet[cur.ID] {
				lambda++
				cur = work.Node(cur.Fanins[0])
				continue
			}
			return cur.ID, lambda, nil
		}
	}
	fromRef := func(id netlist.NodeID) (NodeRef, error) {
		n := work.Node(id)
		switch {
		case n.Kind.IsCombinational():
			if gi, ok := r.GateIdx[id]; ok {
				return NodeRef{RefGate, gi}, nil
			}
			// Outside the affected cone: classic timing, fixed source.
			return NodeRef{RefSource, addSource(id)}, nil
		case n.Kind == netlist.KindDFF, n.Kind == netlist.KindInput, n.Kind.IsConst():
			return NodeRef{RefSource, addSource(id)}, nil
		}
		return NodeRef{}, fmt.Errorf("core: unexpected edge origin %q (%v)", n.Name, n.Kind)
	}

	// Gate input edges.
	for gi, gid := range r.Gates {
		g := work.Node(gid)
		for pin, f := range g.Fanins {
			src, lambda, err := traceBack(f)
			if err != nil {
				return nil, err
			}
			from, err := fromRef(src)
			if err != nil {
				return nil, err
			}
			r.Edges = append(r.Edges, Edge{
				From: from, To: NodeRef{RefGate, gi}, Lambda: lambda,
				SrcNode: src, DstNode: gid, DstPin: pin,
			})
		}
	}

	// Sink edges: boundary flip-flops and primary outputs whose data input
	// traces into the region (or across removed flip-flops).
	var sinkErr error
	work.Live(func(n *netlist.Node) {
		if sinkErr != nil {
			return
		}
		isCapture := (n.Kind == netlist.KindDFF && !r.removedSet[n.ID]) || n.Kind == netlist.KindOutput
		if !isCapture {
			return
		}
		src, lambda, err := traceBack(n.Fanins[0])
		if err != nil {
			sinkErr = err
			return
		}
		srcNode := work.Node(src)
		inRegion := false
		if srcNode.Kind.IsCombinational() {
			_, inRegion = r.GateIdx[src]
		}
		if !inRegion && lambda == 0 {
			return // unrelated to the region
		}
		from, err := fromRef(src)
		if err != nil {
			sinkErr = err
			return
		}
		si := addSink(n.ID)
		r.Edges = append(r.Edges, Edge{
			From: from, To: NodeRef{RefSink, si}, Lambda: lambda,
			SrcNode: src, DstNode: n.ID, DstPin: 0,
		})
	})
	if sinkErr != nil {
		return nil, sinkErr
	}

	r.sched = newSchedule(r)

	// 5. The untouched logic outside the region still has to meet the
	// target period classically; record its requirement.
	r.ExternalPeriod = externalPeriod(work, lib, base, r.Sinks, r.removedSet)

	// 6. Safety: every removed flip-flop must be bypassable — all its
	// readers are region gates, removed flip-flops, boundary sinks we
	// recorded, or primary outputs.

	for _, id := range r.Removed {
		for _, reader := range fanouts[id] {
			rn := work.Node(reader)
			switch {
			case rn.Kind.IsCombinational():
				if _, ok := r.GateIdx[reader]; !ok {
					return nil, fmt.Errorf("core: removed flip-flop %q read by unaffected gate %q (internal error)",
						work.Node(id).Name, rn.Name)
				}
			case rn.Kind == netlist.KindDFF, rn.Kind == netlist.KindOutput:
				// Covered by sink edges or further removed flip-flops.
			default:
				return nil, fmt.Errorf("core: removed flip-flop %q read by %v %q",
					work.Node(id).Name, rn.Kind, rn.Name)
			}
		}
	}
	return r, nil
}

// externalPeriod returns the minimum clock period required by the
// endpoints outside the region: capture nodes that are neither recorded
// sinks nor removed flip-flops keep their classic timing.
func externalPeriod(work *netlist.Circuit, lib *celllib.Library, base *sta.Result, sinks []Sink, removedSet map[netlist.NodeID]bool) float64 {
	sinkSet := make(map[netlist.NodeID]bool, len(sinks))
	for _, s := range sinks {
		sinkSet[s.Node] = true
	}
	ext := 0.0
	work.Live(func(n *netlist.Node) {
		if sinkSet[n.ID] || removedSet[n.ID] || len(n.Fanins) == 0 {
			return
		}
		var req float64
		switch n.Kind {
		case netlist.KindDFF:
			req = base.MaxArrival[n.Fanins[0]] + lib.FF.Tsu
		case netlist.KindOutput:
			req = base.MaxArrival[n.Fanins[0]]
		default:
			return
		}
		if req > ext {
			ext = req
		}
	})
	return ext
}

// Stats summarizes a region in the paper's Table 1 terms.
type RegionStats struct {
	SelectedFFs int // ncs
	RegionGates int // ncg
	Sources     int
	Sinks       int
	Edges       int
}

// Stats returns summary counts.
func (r *Region) Stats() RegionStats {
	return RegionStats{
		SelectedFFs: len(r.Removed),
		RegionGates: len(r.Gates),
		Sources:     len(r.Sources),
		Sinks:       len(r.Sinks),
		Edges:       len(r.Edges),
	}
}

// GateDelayRange returns the min/max delay of region gate gi under the
// library (by drive selection of its bound cell).
func (r *Region) GateDelayRange(gi int) (min, max float64, err error) {
	return r.Lib.DelayRange(r.Work.Node(r.Gates[gi]))
}
