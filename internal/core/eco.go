package core

import (
	"context"
	"fmt"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sta"
)

// Session holds everything needed to re-optimize a circuit incrementally
// after small (ECO-style) edits: the accepted pre-optimization netlist
// and the last result, whose plan carries the extracted region.
// Reoptimize applies an edit list, re-analyzes and re-extracts the edited
// circuit, and re-solves starting from the previous plan instead of
// rerunning the cold period search.
//
// A Session is not safe for concurrent use.
type Session struct {
	Lib      *celllib.Library
	Opts     Options
	StepFrac float64

	// Circuit is the current pre-optimization netlist the session owns.
	Circuit *netlist.Circuit
	// Result is the last successful optimization of Circuit.
	Result *Result
}

// ECOStats reports how one Reoptimize call went: how much of the
// previous state transferred and how much work the re-solve needed.
type ECOStats struct {
	// ConeNodes is the size of the dirty fan-out cone of the edit.
	ConeNodes int
	// STA is always nil and Spliced always false: every edit runs a
	// full timing analysis and rebuilds the region. The fields stay
	// because the bench module still reads them.
	STA     *sta.IncrementalStats
	Spliced bool
	// PlanTransferred reports that the previous plan's unit placements
	// were remapped onto the new region as a solver hint.
	PlanTransferred bool
	// BasisTransferred reports that the previous simplex basis came along
	// with the plan (only possible when every edge matched).
	BasisTransferred bool
	// Probes counts optimization attempts, RecoverySteps how many of
	// them raised the target above the held period before one succeeded.
	Probes        int
	RecoverySteps int
	// Fallback reports that the incremental path gave up and the cold
	// period search ran instead.
	Fallback bool
}

// NewSession runs the cold VirtualSync period search on c and captures
// the state needed for incremental re-optimization. obs may be nil.
func NewSession(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, opts Options, stepFrac float64, obs ProgressFunc) (*Session, error) {
	if stepFrac <= 0 {
		stepFrac = DefaultStepFrac
	}
	res, err := OptimizeObserved(ctx, c, lib, opts, stepFrac, obs)
	if err != nil {
		return nil, err
	}
	return newSession(lib, opts, stepFrac, res), nil
}

// newSession keeps the extracted region's working copy of the circuit
// as the session state, as Reoptimize does after every edit.
func newSession(lib *celllib.Library, opts Options, stepFrac float64, res *Result) *Session {
	return &Session{
		Lib:      lib,
		Opts:     opts,
		StepFrac: stepFrac,
		Circuit:  res.Plan.R.Work,
		Result:   res,
	}
}

// NewSessionAtPeriod builds a session from a single-period optimization
// at T instead of the period search; OptimizeAtPeriod is its Result. It
// returns (nil, nil) when T is infeasible under the model. Reoptimize
// behaves identically on either kind of session; StepFrac starts at the
// paper default and may be adjusted before the first Reoptimize.
func NewSessionAtPeriod(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, T float64, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	region, err := Extract(c, lib, opts.SelectFrac)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := solvePeriod(ctx, region, T, opts, nil)
	if err != nil || plan == nil {
		return nil, err
	}
	res, err := plan.finish(ctx, opts.BufferReplace)
	if err != nil {
		return nil, err
	}
	res.Runtime = time.Since(start)
	return newSession(lib, opts, DefaultStepFrac, res), nil
}

// Reoptimize applies the edits to the session's circuit and re-runs the
// VirtualSync flow incrementally: the edited circuit is re-analyzed and
// its region rebuilt from scratch, and the previous plan warm-starts the
// solve. The rebuilt region lists its edges in the same positional order
// whenever the edit leaves the structure and the removal selection
// alone, so the simplex basis carries along with the plan. The target
// period is held at the previously achieved period; if the edit made
// that infeasible, the target backs off in growing steps up to the new
// guard-banded baseline, and only if everything fails does the cold
// period search run (Fallback).
//
// On success the session state advances to the edited circuit; on error
// it is unchanged.
func (s *Session) Reoptimize(ctx context.Context, edits []netlist.Edit) (*Result, *ECOStats, error) {
	start := time.Now()
	work, plan, st, err := s.resolve(ctx, edits)
	if err != nil {
		return nil, nil, err
	}
	if plan == nil {
		return s.coldFallback(ctx, work, st)
	}
	res, err := plan.finish(ctx, s.Opts.BufferReplace)
	if err != nil {
		return nil, nil, err
	}
	res.Runtime = time.Since(start)
	s.Circuit = work
	s.Result = res
	return res, st, nil
}

// resolve is Reoptimize up to buffer replacement: it applies the edits
// to a copy of the session's circuit and returns that copy with the
// realized plan of the incremental path, or with a nil plan when the
// cold period search must run instead. The session is left alone.
func (s *Session) resolve(ctx context.Context, edits []netlist.Edit) (*netlist.Circuit, *Plan, *ECOStats, error) {
	if s.Result == nil || s.Circuit == nil {
		return nil, nil, nil, fmt.Errorf("core: session has no prior result")
	}
	st := &ECOStats{}
	work := s.Circuit.Clone()
	er, err := work.ApplyEdits(edits)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := work.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: edited circuit invalid: %v", err)
	}
	if _, err := work.TopoOrder(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: edits create a combinational loop")
	}
	st.ConeNodes = len(netlist.FanoutCone(work, er.Touched))

	newBase, err := sta.Analyze(work, s.Lib)
	if err != nil {
		return nil, nil, nil, err
	}
	removed := selectRemovable(work, s.Lib, newBase, s.Opts.SelectFrac)
	if len(removed) == 0 {
		return work, nil, st, nil
	}
	region, err := buildRegion(work, s.Lib, newBase, removed)
	if err != nil {
		return work, nil, st, nil
	}
	hint := transferPlan(region, s.Result.Plan)
	st.PlanTransferred = hint != nil
	st.BasisTransferred = hint != nil && hint.Basis != nil

	// Hold the previously achieved period; recover upward in doubling
	// steps when the edit made it infeasible. capT sits one step above
	// the new guard-banded baseline, which the cold search's first probe
	// targets — beyond that the incremental path has nothing to offer.
	T0 := newBase.MinPeriod * s.Opts.Ru
	capT := T0 * (1 + s.StepFrac)
	held := s.Result.Period
	mult := 0.0
	for {
		T := held * (1 + s.StepFrac*mult)
		atCap := T >= capT
		if atCap {
			T = capT
		}
		plan, err := solvePeriod(ctx, region, T, s.Opts, hint)
		if err != nil {
			return nil, nil, nil, err
		}
		st.Probes++
		if plan != nil {
			return work, plan, st, nil
		}
		if atCap {
			return work, nil, st, nil
		}
		st.RecoverySteps++
		if mult == 0 {
			mult = 1
		} else {
			mult *= 2
		}
	}
}

// coldFallback runs the full period search on the edited circuit and
// advances the session state from its result.
func (s *Session) coldFallback(ctx context.Context, work *netlist.Circuit, st *ECOStats) (*Result, *ECOStats, error) {
	st.Fallback = true
	res, err := OptimizeObserved(ctx, work, s.Lib, s.Opts, s.StepFrac, nil)
	if err != nil {
		return nil, nil, err
	}
	s.Circuit = work
	s.Result = res
	return res, st, nil
}

// transferPlan remaps a plan from its own region onto the new one
// by physical edge identity (source node, destination node, destination
// pin). Unit placements carry over edge by edge; edges with no
// counterpart start without a unit. The simplex basis transfers only on
// a full structural match — column order is positional, so any
// reshuffle invalidates it. The result is a solver hint for
// retargetPlan; if the transferred placements do not fit the new region,
// the retarget solve is infeasible and the full pipeline runs, so a bad
// transfer costs one solve, never correctness.
func transferPlan(r *Region, prev *Plan) *Plan {
	if prev == nil {
		return nil
	}
	prevR := prev.R
	type edgeKey struct {
		src, dst netlist.NodeID
		pin      int
	}
	idx := make(map[edgeKey]int, len(prevR.Edges))
	for i, e := range prevR.Edges {
		idx[edgeKey{e.SrcNode, e.DstNode, e.DstPin}] = i
	}
	nE := len(r.Edges)
	p := &Plan{R: r, T: prev.T, Opts: prev.Opts, Unit: make([]Placement, nE)}
	full := nE == len(prevR.Edges)
	for i, e := range r.Edges {
		j, ok := idx[edgeKey{e.SrcNode, e.DstNode, e.DstPin}]
		if !ok {
			full = false
			continue
		}
		if j != i {
			full = false
		}
		p.Unit[i] = prev.Unit[j]
	}
	if full {
		p.Basis = prev.Basis
	}
	return p
}
