package core

import (
	"context"
	"slices"

	"virtualsync/internal/lp"
)

// Plan is a realized VirtualSync solution for a region at period T: the
// delay unit (if any), requested and realized buffer chain per edge, and
// the assigned gate delays before and after discretization.
type Plan struct {
	R    *Region
	T    float64
	Opts Options

	Unit []Placement // per edge
	// XiReq is each edge's continuous buffer-delay request. realize
	// writes it only from its value solves, one per rounding round, so
	// after realize a frozen edge keeps the request it was rounded from.
	// For an edge frozen after others in the same round that entry is
	// stale: the round's earlier decisions would move it. Nothing reads
	// it; replacement's repair solve rewrites every entry.
	XiReq      []float64
	Chain      [][]int   // per edge: realized chain as buffer drive indices
	ChainDelay []float64 // per edge: realized chain delay

	GateDelayReq []float64 // per gate: continuous delay from the solver
	GateDrive    []int     // per gate: discretized drive
	GateDelay    []float64 // per gate: realized delay

	// Basis is the optimal simplex basis of the plan's final timing LP.
	// The period sweep threads it into the next probe's solve the same
	// way prev carries unit placements, so neighbouring periods start
	// from an almost-correct basis instead of from scratch.
	Basis *lp.Basis
}

// clone returns a copy of the plan that shares only the region and the
// basis, which no plan method modifies.
func (p *Plan) clone() *Plan {
	q := *p
	q.Unit = slices.Clone(p.Unit)
	q.XiReq = slices.Clone(p.XiReq)
	q.Chain = make([][]int, len(p.Chain))
	for i, ch := range p.Chain {
		q.Chain[i] = slices.Clone(ch)
	}
	q.ChainDelay = slices.Clone(p.ChainDelay)
	q.GateDelayReq = slices.Clone(p.GateDelayReq)
	q.GateDrive = slices.Clone(p.GateDrive)
	q.GateDelay = slices.Clone(p.GateDelay)
	return &q
}

// NumUnits counts inserted sequential delay units by kind.
func (p *Plan) NumUnits() (ffs, latches int) {
	for _, u := range p.Unit {
		switch u.Kind {
		case UnitFF:
			ffs++
		case UnitLatch:
			latches++
		}
	}
	return
}

// NumBuffers counts inserted buffers over all chains.
func (p *Plan) NumBuffers() int {
	n := 0
	for _, ch := range p.Chain {
		n += len(ch)
	}
	return n
}

// InsertedArea returns the area of all inserted delay units and buffers.
func (p *Plan) InsertedArea() float64 {
	bufCell := p.R.Lib.Cell("BUF")
	area := 0.0
	for ei := range p.Unit {
		area += p.R.unitArea(p.Unit[ei].Kind)
		for _, drive := range p.Chain[ei] {
			area += bufCell.Options[drive].Area
		}
	}
	return area
}

// gapTol is the threshold above which a Delta'/Delta difference marks an
// edge as needing a sequential delay unit.
func gapTol(T float64) float64 { return 1e-6*T + 1e-9 }

// optimizeRegion runs phases 1-3 of the VirtualSync flow (emulation,
// clock-to-q approximation with iterative lower bounds, exact-model
// legalization) for target period T. It returns nil when T is infeasible.
// prev, when non-nil, is a feasible plan from a nearby period: its unit
// placements are retargeted directly (window indices free to move by one)
// and the full pipeline runs only if that fails.
func optimizeRegion(ctx context.Context, r *Region, T float64, opts Options, prev *Plan) (*Plan, error) {
	if prev != nil {
		if p, err := retargetPlan(ctx, r, T, opts, prev); err != nil || p != nil {
			return p, err
		}
	}
	return optimizeRegionFull(ctx, r, T, opts)
}

// retargetPlan re-solves the timing LP with the previous plan's delay
// units frozen in place (window indices may shift by one) and its basis
// warm-starting the simplex. It returns nil when the placements do not
// transfer to the new period.
func retargetPlan(ctx context.Context, r *Region, T float64, opts Options, prev *Plan) (*Plan, error) {
	spec := frozenSpec(T, opts, prev.Unit)
	spec.nSlack = 1
	mv, err := r.buildModel(spec)
	if err != nil {
		return nil, err
	}
	sol, _, err := r.solve(ctx, mv, prev.Basis)
	if err != nil || sol == nil {
		return nil, err
	}
	return decodePlan(r, mv, sol)
}

// frozenSpec is the model of a plan whose delay units stay where they
// are: every edge with a unit ModeFixed on it, every other edge
// ModePlain. Callers set the spec's other freezes (gate delays, buffer
// delays, quantization margin, window slack) themselves.
func frozenSpec(T float64, opts Options, units []Placement) *modelSpec {
	spec := &modelSpec{T: T, opts: opts, modes: make([]EdgeMode, len(units)), fixed: units}
	for ei, pl := range units {
		spec.modes[ei] = ModePlain
		if pl.Kind != UnitNone {
			spec.modes[ei] = ModeFixed
		}
	}
	return spec
}

// decodePlan reads the unrealized plan of a solved model: each gate's
// assigned delay, each edge's buffer-delay request and delay unit. An
// exact-model edge carries the case the solve chose; a fixed edge keeps
// its unit, with the window index the solve settled on; a plain edge has
// none.
func decodePlan(r *Region, mv *modelVars, sol *lp.Solution) (*Plan, error) {
	spec := mv.spec
	nE := len(r.Edges)
	p := &Plan{
		R: r, T: spec.T, Opts: spec.opts,
		Unit:         make([]Placement, nE),
		XiReq:        make([]float64, nE),
		Chain:        make([][]int, nE),
		ChainDelay:   make([]float64, nE),
		GateDelayReq: make([]float64, len(r.Gates)),
		Basis:        sol.Basis,
	}
	for gi := range r.Gates {
		p.GateDelayReq[gi] = mv.gateDelayOf(sol, gi)
	}
	for ei := 0; ei < nE; ei++ {
		p.XiReq[ei] = sol.Value(mv.xi[ei])
		if m := spec.modes[ei]; m == ModeFixed || m == ModeExact {
			pl, err := mv.chosenCase(sol, ei)
			if err != nil {
				return nil, err
			}
			p.Unit[ei] = pl
		}
	}
	return p, nil
}

func optimizeRegionFull(ctx context.Context, r *Region, T float64, opts Options) (*Plan, error) {
	nE := len(r.Edges)
	tol := gapTol(T)

	// Every phase 1-3 solve starts cold: each phase-2 iteration and
	// phase 3 change the model's columns, so a basis from the previous
	// solve would never apply.
	inSd := make([]bool, nE)
	{
		// Phase 1: sequential-delay emulation (paper eq. 22-24).
		spec := &modelSpec{T: T, opts: opts, modes: make([]EdgeMode, nE)}
		mv, sol, err := r.solveSpec(ctx, spec)
		if err != nil {
			return nil, err
		}
		if sol == nil {
			return nil, nil // infeasible at T
		}
		inS := make([]bool, nE)
		maxGap := 0.0
		for ei := 0; ei < nE; ei++ {
			if g := mv.edgeGap(sol, ei); g > tol {
				inS[ei] = true
				if g > maxGap {
					maxGap = g
				}
			}
		}

		// Phase 2: clock/data-to-q approximation with iteratively lowered
		// gap bounds (paper Section 5.2).
		if maxGap > 0 {
			lb := T / 2
			for iter := 0; iter < 6; iter++ {
				spec := &modelSpec{T: T, opts: opts, modes: make([]EdgeMode, nE), gapLB: lb}
				for ei := range spec.modes {
					if inS[ei] {
						spec.modes[ei] = ModeBinary
					} else if iter < 2 {
						// Keep the model small while the location set is
						// still coarse; later iterations fall back to
						// emulation everywhere to discover new locations.
						spec.modes[ei] = ModePlain
					}
				}
				mv, sol, err := r.solveSpec(ctx, spec)
				if err != nil {
					return nil, err
				}
				if sol == nil {
					// Too-aggressive lower bound; relax it.
					lb /= 2
					if lb < tol {
						lb = 0
					}
					continue
				}
				for ei := range r.Edges {
					if inS[ei] && sol.Value(mv.x[ei]) > 0.5 {
						inSd[ei] = true
					}
				}
				// New gaps outside S mean more candidate locations.
				grew := false
				for ei := 0; ei < nE; ei++ {
					if !inS[ei] && mv.edgeGap(sol, ei) > tol {
						inS[ei] = true
						grew = true
					}
				}
				if !grew {
					break
				}
				lb /= 2
			}
			if !slices.Contains(inSd, true) {
				// The approximation never placed a unit although gaps exist;
				// legalize every candidate location instead.
				copy(inSd, inS)
			}
		}
	}

	// Phase 3: exact-model legalization on Sd (paper Section 5.3): one
	// solve with the full case-selection ILP on every Sd edge and every
	// other edge in pass-through mode. If it is infeasible, so is T.
	spec := &modelSpec{T: T, opts: opts, modes: make([]EdgeMode, nE)}
	for ei := range spec.modes {
		spec.modes[ei] = ModePlain
		if inSd[ei] {
			spec.modes[ei] = ModeExact
		}
	}
	mv, sol, err := r.solveSpec(ctx, spec)
	if err != nil || sol == nil {
		return nil, err
	}
	return decodePlan(r, mv, sol)
}
