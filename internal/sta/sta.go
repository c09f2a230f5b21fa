// Package sta implements static timing analysis for synchronous gate-level
// circuits: min/max arrival times, downstream (required-side) delays,
// minimum feasible clock period, critical-path extraction and hold checks.
//
// The timing model matches the VirtualSync paper's traditional baseline:
// flip-flop outputs launch at tcq after the clock edge, capture at a
// flip-flop D pin requires arrival + tsu <= T, and hold requires the
// earliest arrival >= th. Primary inputs launch at time 0 and primary
// outputs capture with zero setup. Level-sensitive latches are treated
// like flip-flops here; the wave-aware validator in internal/core handles
// their transparent-phase semantics for optimized circuits.
package sta

import (
	"fmt"
	"math"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// Result holds per-node timing quantities, indexed by netlist.NodeID.
// Entries for dead nodes are meaningless.
type Result struct {
	// MaxArrival and MinArrival are the latest/earliest signal arrival
	// times at each node's output, relative to the launching clock edge.
	MaxArrival []float64
	MinArrival []float64

	// Down is the worst-case downstream delay from each node's output to
	// any capture point, including the capturing flip-flop's setup time.
	Down []float64

	// MinPeriod is the smallest clock period satisfying all setup
	// constraints.
	MinPeriod float64

	// WorstEndpoint is the capture node (flip-flop or output port) that
	// determines MinPeriod.
	WorstEndpoint netlist.NodeID

	// CriticalPath lists node IDs from a launch point to WorstEndpoint
	// along the slowest path.
	CriticalPath []netlist.NodeID

	// HoldViolations lists capture nodes whose earliest data arrival is
	// before the hold time.
	HoldViolations []netlist.NodeID

	pred []netlist.NodeID // argmax predecessor for path reconstruction
}

// IncrementalStats is the type of core.ECOStats.STA, which is always nil:
// every analysis is a full one. It stays because the bench module still
// reads the field.
type IncrementalStats struct {
	ArrivalRecomputed int
}

// Delays resolves the combinational delay of every live node under the
// library, indexed by NodeID. Ports, constants and sequential elements get
// zero.
func Delays(c *netlist.Circuit, lib *celllib.Library) ([]float64, error) {
	d := make([]float64, len(c.Nodes))
	var err error
	c.Live(func(n *netlist.Node) {
		if err != nil {
			return
		}
		d[n.ID], err = lib.Delay(n)
	})
	return d, err
}

// Overrides replaces selected timing quantities in an analysis. It is
// the hook used by internal/variation to re-run STA under sampled
// (process-varied) delays without mutating the circuit or library.
type Overrides struct {
	// Delays, when non-nil, supplies the combinational delay of every
	// node indexed by netlist.NodeID, replacing library lookups. Entries
	// for ports, constants and sequential nodes are ignored.
	Delays []float64
	// FF and Latch, when non-nil, replace the library's sequential
	// timing (tcq, tsu, th).
	FF, Latch *celllib.SeqTiming
}

// Analyze runs static timing analysis on a synchronous circuit. The
// circuit must be free of combinational loops.
func Analyze(c *netlist.Circuit, lib *celllib.Library) (*Result, error) {
	return AnalyzeOverride(c, lib, Overrides{})
}

// AnalyzeOverride is Analyze with selected timing quantities replaced.
func AnalyzeOverride(c *netlist.Circuit, lib *celllib.Library, ov Overrides) (*Result, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sta: %v", err)
	}
	delays := ov.Delays
	if delays == nil {
		delays, err = Delays(c, lib)
		if err != nil {
			return nil, fmt.Errorf("sta: %v", err)
		}
	} else if len(delays) < len(c.Nodes) {
		return nil, fmt.Errorf("sta: delay override has %d entries for %d nodes", len(delays), len(c.Nodes))
	}
	ff, latch := lib.FF, lib.Latch
	if ov.FF != nil {
		ff = *ov.FF
	}
	if ov.Latch != nil {
		latch = *ov.Latch
	}

	n := len(c.Nodes)
	r := &Result{
		MaxArrival: make([]float64, n),
		MinArrival: make([]float64, n),
		Down:       make([]float64, n),
		pred:       make([]netlist.NodeID, n),
	}
	for i := range r.pred {
		r.pred[i] = netlist.InvalidID
	}

	launch := func(nd *netlist.Node) (float64, bool) {
		switch nd.Kind {
		case netlist.KindInput, netlist.KindConst0, netlist.KindConst1:
			return 0, true
		case netlist.KindDFF:
			return ff.Tcq, true
		case netlist.KindLatch:
			return latch.Tcq, true
		}
		return 0, false
	}

	// Forward pass: arrival times in topological order. Sequential nodes
	// are sources; their D-pin arrival is read separately below.
	for _, nd := range order {
		if t, ok := launch(nd); ok {
			r.MaxArrival[nd.ID] = t
			r.MinArrival[nd.ID] = t
			continue
		}
		maxA := math.Inf(-1)
		minA := math.Inf(1)
		var pred netlist.NodeID = netlist.InvalidID
		for _, f := range nd.Fanins {
			if a := r.MaxArrival[f]; a > maxA {
				maxA = a
				pred = f
			}
			if a := r.MinArrival[f]; a < minA {
				minA = a
			}
		}
		if len(nd.Fanins) == 0 {
			maxA, minA = 0, 0
		}
		r.MaxArrival[nd.ID] = maxA + delays[nd.ID]
		r.MinArrival[nd.ID] = minA + delays[nd.ID]
		r.pred[nd.ID] = pred
	}

	// Capture constraints. For an endpoint e with data fanin u:
	// setup period requirement = MaxArrival[u] + tsu(e).
	r.MinPeriod = 0
	r.WorstEndpoint = netlist.InvalidID
	endpointReq := func(nd *netlist.Node) (req float64, holdOK bool, isEnd bool) {
		if len(nd.Fanins) == 0 {
			return 0, true, false
		}
		u := nd.Fanins[0]
		switch nd.Kind {
		case netlist.KindDFF:
			return r.MaxArrival[u] + ff.Tsu, r.MinArrival[u] >= ff.Th-1e-9, true
		case netlist.KindLatch:
			return r.MaxArrival[u] + latch.Tsu, r.MinArrival[u] >= latch.Th-1e-9, true
		case netlist.KindOutput:
			return r.MaxArrival[u], true, true
		}
		return 0, true, false
	}
	c.Live(func(nd *netlist.Node) {
		req, holdOK, isEnd := endpointReq(nd)
		if !isEnd {
			return
		}
		if req > r.MinPeriod {
			r.MinPeriod = req
			r.WorstEndpoint = nd.ID
		}
		if !holdOK {
			r.HoldViolations = append(r.HoldViolations, nd.ID)
		}
	})

	// Backward pass: downstream delay to any capture point, including the
	// endpoint's setup.
	for i := range r.Down {
		r.Down[i] = math.Inf(-1)
	}
	c.Live(func(nd *netlist.Node) {
		if len(nd.Fanins) == 0 {
			return
		}
		switch nd.Kind {
		case netlist.KindDFF:
			seed(r.Down, nd.Fanins[0], ff.Tsu)
		case netlist.KindLatch:
			seed(r.Down, nd.Fanins[0], latch.Tsu)
		case netlist.KindOutput:
			seed(r.Down, nd.Fanins[0], 0)
		}
	})
	for i := len(order) - 1; i >= 0; i-- {
		nd := order[i]
		if nd.Kind.IsSequential() || nd.Kind == netlist.KindOutput {
			continue
		}
		d := r.Down[nd.ID]
		if math.IsInf(d, -1) {
			continue
		}
		for _, f := range nd.Fanins {
			seed(r.Down, f, d+delays[nd.ID])
		}
	}
	for i := range r.Down {
		if math.IsInf(r.Down[i], -1) {
			r.Down[i] = 0
		}
	}

	// Critical path reconstruction from the worst endpoint.
	if r.WorstEndpoint != netlist.InvalidID {
		var path []netlist.NodeID
		end := c.Node(r.WorstEndpoint)
		cur := end.Fanins[0]
		for cur != netlist.InvalidID {
			path = append(path, cur)
			cur = r.pred[cur]
		}
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		r.CriticalPath = append(path, r.WorstEndpoint)
	}
	return r, nil
}

func seed(down []float64, id netlist.NodeID, v float64) {
	if v > down[id] {
		down[id] = v
	}
}

// Slack returns the setup slack of node id's output under clock period T:
// how much later the signal could arrive at this node without violating
// any downstream capture.
func (r *Result) Slack(id netlist.NodeID, T float64) float64 {
	return T - (r.MaxArrival[id] + r.Down[id])
}

// WorstPathThrough returns the delay of the slowest register-to-register
// (or port-to-register) path passing through node id's output, including
// launch clock-to-q and capture setup.
func (r *Result) WorstPathThrough(id netlist.NodeID) float64 {
	return r.MaxArrival[id] + r.Down[id]
}

// MeetsPeriod reports whether the circuit meets clock period T, with a
// small tolerance for floating-point noise.
func (r *Result) MeetsPeriod(T float64) bool {
	return r.MinPeriod <= T+1e-9
}

// MinPeriod computes only the minimum feasible clock period.
func MinPeriod(c *netlist.Circuit, lib *celllib.Library) (float64, error) {
	r, err := Analyze(c, lib)
	if err != nil {
		return 0, err
	}
	return r.MinPeriod, nil
}
