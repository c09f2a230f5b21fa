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
// after small (ECO-style) edits: the accepted pre-optimization netlist,
// its full timing analysis, the extracted region and the last feasible
// plan. Reoptimize applies an edit list and re-solves starting from that
// state instead of rerunning the cold period search.
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

	region *Region
	base   *sta.Result // analysis of Circuit, chained incrementally
}

// ECOStats reports how one Reoptimize call went: how much of the
// previous state transferred and how much work the re-solve needed.
type ECOStats struct {
	// ConeNodes is the size of the dirty fan-out cone of the edit.
	ConeNodes int
	// STA is the incremental timing work, nil when a full analysis ran.
	STA *sta.IncrementalStats
	// Spliced reports that the previous region's structure was reused
	// (no structural edit and an unchanged removal selection).
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
	// Runtime is the wall-clock time of the whole Reoptimize call.
	Runtime time.Duration
}

// NewSession runs the cold VirtualSync period search on c and captures
// the state needed for incremental re-optimization. obs may be nil.
func NewSession(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, opts Options, stepFrac float64, obs ProgressFunc) (*Session, error) {
	if stepFrac <= 0 {
		stepFrac = 0.005
	}
	res, region, err := optimizeSearch(ctx, c, lib, opts, stepFrac, obs)
	if err != nil {
		return nil, err
	}
	return newSession(lib, opts, stepFrac, res, region), nil
}

// newSession keeps the extracted region's working copy of the circuit
// and its timing analysis as the session state, as Reoptimize does
// after every edit.
func newSession(lib *celllib.Library, opts Options, stepFrac float64, res *Result, region *Region) *Session {
	return &Session{
		Lib:      lib,
		Opts:     opts,
		StepFrac: stepFrac,
		Circuit:  region.Work,
		Result:   res,
		region:   region,
		base:     region.Baseline,
	}
}

// NewSessionAtPeriod builds a session from a single-target optimization
// at clock period T instead of the full period search. It returns
// (nil, nil) when T is infeasible under the model. This is the cheap
// constructor for callers that already know the target (tests, fuzzing,
// re-runs at a known period); Reoptimize behaves identically on either
// kind of session. The session's StepFrac starts at the paper default
// and may be adjusted before the first Reoptimize.
func NewSessionAtPeriod(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, T float64, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	region, err := Extract(c, lib, ExtractOptions{SelectFrac: opts.SelectFrac})
	if err != nil {
		return nil, err
	}
	res, err := optimizeExtracted(ctx, region, c, lib, T, opts, nil, opts.BufferReplace)
	if err != nil || res == nil {
		return nil, err
	}
	return newSession(lib, opts, 0.005, res, region), nil
}

// Reoptimize applies the edits to the session's circuit and re-runs the
// VirtualSync flow incrementally: timing is re-propagated only through
// the edit's fan-out cone, the region is spliced from the previous
// extraction when its structure is unaffected, and the previous plan
// warm-starts the solve. The target period is held at the previously
// achieved period; if the edit made that infeasible, the target backs
// off in growing steps up to the new guard-banded baseline, and only if
// everything fails does the cold period search run (Fallback).
//
// On success the session state advances to the edited circuit; on error
// it is unchanged.
func (s *Session) Reoptimize(ctx context.Context, edits []netlist.Edit) (*Result, *ECOStats, error) {
	if s.Result == nil || s.Circuit == nil {
		return nil, nil, fmt.Errorf("core: session has no prior result")
	}
	start := time.Now()
	st := &ECOStats{}
	work := s.Circuit.Clone()
	er, err := work.ApplyEdits(edits)
	if err != nil {
		return nil, nil, err
	}
	if err := work.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: edited circuit invalid: %v", err)
	}
	if loops := work.CombLoops(); len(loops) > 0 {
		return nil, nil, fmt.Errorf("core: edits create a combinational loop")
	}
	st.ConeNodes = len(netlist.FanoutCone(work, er.Touched))

	newBase, staSt, err := sta.AnalyzeIncremental(work, s.Lib, s.base, er.Touched)
	if err != nil {
		// A session restored from foreign state has no raw analysis;
		// degrade to a full STA rather than failing the ECO.
		newBase, err = sta.Analyze(work, s.Lib)
		if err != nil {
			return nil, nil, err
		}
	}
	st.STA = staSt

	region, spliced, err := s.extractIncremental(work, newBase, er)
	if err != nil {
		return s.coldFallback(ctx, work, newBase, st, start)
	}
	st.Spliced = spliced
	hint := transferPlan(region, s.region, s.Result.Plan)
	st.PlanTransferred = hint != nil
	st.BasisTransferred = hint != nil && hint.Basis != nil

	// Hold the previously achieved period; recover upward in doubling
	// steps when the edit made it infeasible. capT sits one step above
	// the new guard-banded baseline, which the cold search's first probe
	// targets — beyond that the incremental path has nothing to offer.
	T0 := newBase.MinPeriod * s.Opts.Ru
	capT := T0 * (1 + s.StepFrac)
	held := s.Result.Period
	var res *Result
	mult := 0.0
	for {
		T := held * (1 + s.StepFrac*mult)
		atCap := T >= capT
		if atCap {
			T = capT
		}
		res, err = optimizeExtracted(ctx, region, work, s.Lib, T, s.Opts, hint, s.Opts.BufferReplace)
		if err != nil {
			return nil, nil, err
		}
		st.Probes++
		if res != nil {
			break
		}
		if atCap {
			return s.coldFallback(ctx, work, newBase, st, start)
		}
		st.RecoverySteps++
		if mult == 0 {
			mult = 1
		} else {
			mult *= 2
		}
	}

	res.Solver = region.SolverStats()
	s.Circuit = work
	s.base = newBase
	s.region = region
	s.Result = res
	st.Runtime = time.Since(start)
	return res, st, nil
}

// coldFallback runs the full period search on the edited circuit and
// advances the session state from its result.
func (s *Session) coldFallback(ctx context.Context, work *netlist.Circuit, newBase *sta.Result, st *ECOStats, start time.Time) (*Result, *ECOStats, error) {
	st.Fallback = true
	res, region, err := optimizeSearch(ctx, work, s.Lib, s.Opts, s.StepFrac, nil)
	if err != nil {
		return nil, nil, err
	}
	s.Circuit = work
	s.base = newBase
	s.region = region
	s.Result = res
	st.Runtime = time.Since(start)
	return res, st, nil
}

// extractIncremental re-extracts the critical part of the edited
// circuit. When the edit was non-structural (no rewires, no sequential
// changes) and the removal selection under the new timing matches the
// previous one, the previous region's structure is spliced — gates,
// edges and sinks are functions of wiring and the removal set, both
// unchanged — and only the timing-derived fields are refreshed.
// Otherwise the region is rebuilt from the precomputed analysis.
func (s *Session) extractIncremental(work *netlist.Circuit, base *sta.Result, er *netlist.EditResult) (*Region, bool, error) {
	removed := selectRemovable(work, s.Lib, base, s.Opts.SelectFrac)
	if len(removed) == 0 {
		return nil, false, fmt.Errorf("core: no flip-flops selected at fraction %g", s.Opts.SelectFrac)
	}
	structural := len(er.Rewired) > 0 || er.SeqChanged
	if !structural && s.region != nil && sameIDs(removed, s.region.Removed) {
		return spliceRegion(s.region, work, s.Lib, base), true, nil
	}
	r, err := buildRegion(work, s.Lib, base, removed)
	return r, false, err
}

// spliceRegion reuses the previous region's structure on a
// timing-equivalent circuit and refreshes everything derived from
// timing: fixed source arrivals, the baseline analysis and the
// external-period requirement. The result is identical to a fresh
// buildRegion on the edited circuit, without re-walking the cone.
func spliceRegion(prev *Region, work *netlist.Circuit, lib *celllib.Library, base *sta.Result) *Region {
	r := &Region{
		Work:       work,
		Lib:        lib,
		Gates:      append([]netlist.NodeID(nil), prev.Gates...),
		GateIdx:    make(map[netlist.NodeID]int, len(prev.GateIdx)),
		Sources:    append([]Source(nil), prev.Sources...),
		Sinks:      append([]Sink(nil), prev.Sinks...),
		Edges:      append([]Edge(nil), prev.Edges...),
		Removed:    append([]netlist.NodeID(nil), prev.Removed...),
		removedSet: make(map[netlist.NodeID]bool, len(prev.removedSet)),
		sched:      prev.sched, // a function of Gates and Edges only
		Baseline:   base,
	}
	for id, gi := range prev.GateIdx {
		r.GateIdx[id] = gi
	}
	for _, id := range r.Removed {
		r.removedSet[id] = true
	}
	for i := range r.Sources {
		if s := &r.Sources[i]; s.Fixed {
			s.LateArr = base.MaxArrival[s.Node]
			s.EarlyArr = base.MinArrival[s.Node]
		}
	}
	r.ExternalPeriod = externalPeriod(work, lib, base, r.Sinks, r.removedSet)
	return r
}

// transferPlan remaps a plan from the previous region onto the new one
// by physical edge identity (source node, destination node, destination
// pin). Unit placements and the legalized-edge set carry over edge by
// edge; edges with no counterpart start without a unit. The simplex
// basis transfers only on a full structural match — column order is
// positional, so any reshuffle invalidates it. The result is a solver
// hint for retargetPlan; if the transferred placements do not fit the
// new region, the retarget solve is infeasible and the full pipeline
// runs, so a bad transfer costs one solve, never correctness.
func transferPlan(r, prevR *Region, prev *Plan) *Plan {
	if prev == nil || prevR == nil {
		return nil
	}
	type edgeKey struct {
		src, dst netlist.NodeID
		pin      int
	}
	idx := make(map[edgeKey]int, len(prevR.Edges))
	for i, e := range prevR.Edges {
		idx[edgeKey{e.SrcNode, e.DstNode, e.DstPin}] = i
	}
	nE := len(r.Edges)
	p := &Plan{
		R: r, T: prev.T, Opts: prev.Opts,
		Unit:  make([]Placement, nE),
		SdSet: make([]bool, nE),
	}
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
		if prev.SdSet != nil && j < len(prev.SdSet) {
			p.SdSet[i] = prev.SdSet[j]
		}
	}
	if full {
		p.Basis = prev.Basis
	}
	return p
}

// sameIDs reports whether two NodeID slices are element-wise equal.
func sameIDs(a, b []netlist.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
