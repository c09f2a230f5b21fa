package core

import (
	"context"
	"fmt"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
)

// Result is a successful VirtualSync optimization.
type Result struct {
	Plan    *Plan
	Circuit *netlist.Circuit // optimized netlist
	Period  float64          // achieved clock period

	BaselinePeriod float64 // minimum period of the input circuit (STA)
	BaselineArea   float64
	Area           float64

	NumFFUnits     int // nf: flip-flop delay units in the optimized region
	NumLatchUnits  int // nl
	NumBuffers     int // nb
	RemovedFFs     int
	BufferReplaced int

	// Pre-buffer-replacement state (paper Fig. 6/7): unit counts and the
	// area of all inserted hardware before Section 5.4.
	PreReplaceFFUnits    int
	PreReplaceLatchUnits int
	PreReplaceArea       float64
	// InsertedArea is the area of inserted units and buffers after
	// replacement.
	InsertedArea float64

	// Solver totals the LP/MIP work behind this result — simplex pivots,
	// warm-start reuse, branch-and-bound nodes — summed over every solve
	// of the period search (or of the single target period).
	Solver lp.Stats

	Runtime time.Duration

	// atBaseline is the period search's first probe, the realized plan
	// at BaselinePeriod; nil if it was infeasible or there was no search.
	atBaseline *Plan
}

// PeriodReductionPct is the paper's nt column: clock-period reduction
// relative to the baseline, in percent.
func (res *Result) PeriodReductionPct() float64 {
	if res.BaselinePeriod == 0 {
		return 0
	}
	return 100 * (res.BaselinePeriod - res.Period) / res.BaselinePeriod
}

// AreaDeltaPct is the paper's na column: area change relative to the
// baseline, in percent (negative means smaller).
func (res *Result) AreaDeltaPct() float64 {
	if res.BaselineArea == 0 {
		return 0
	}
	return 100 * (res.Area - res.BaselineArea) / res.BaselineArea
}

// VerifyWarmup is the number of leading cycles an equivalence check of
// the result leaves uncompared: three past the most anchors (λ) any
// region edge spans, and at least 4, so relocated registers have
// flushed their power-on state first.
func (res *Result) VerifyWarmup() int {
	return max(res.Plan.R.maxLambda()+3, 4)
}

// AtBaselinePeriod is VirtualSync at the baseline's own period (paper
// Fig. 8): a copy of the period search's first probe, finished with
// buffer replacement when the options ask for it. It equals
// OptimizeAtPeriod(ctx, c, lib, res.BaselinePeriod, opts) on the
// searched circuit without solving that period again, and leaves res
// untouched. It returns (nil, nil) when that probe was infeasible or res
// did not come from a period search.
func (res *Result) AtBaselinePeriod(ctx context.Context) (*Result, error) {
	if res.atBaseline == nil {
		return nil, nil
	}
	p := res.atBaseline.clone()
	return p.finish(ctx, p.Opts.BufferReplace)
}

// OptimizeAtPeriod attempts to realize clock period T on the circuit's
// critical part. It returns (nil, nil) when T is infeasible under the
// VirtualSync model; cancellation or deadline expiry of ctx aborts the
// attempt with ctx.Err().
func OptimizeAtPeriod(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, T float64, opts Options) (*Result, error) {
	s, err := NewSessionAtPeriod(ctx, c, lib, T, opts)
	if s == nil {
		return nil, err
	}
	return s.Result, nil
}

// solvePeriod runs phases 1-3 at period T, starting from prev's unit
// placements when prev is non-nil, and realizes the plan. It returns nil
// when T is infeasible.
func solvePeriod(ctx context.Context, r *Region, T float64, opts Options, prev *Plan) (*Plan, error) {
	// Logic outside the region is untouched and must still meet T under
	// the same guard band.
	if T < r.ExternalPeriod*opts.Ru-1e-9 {
		return nil, nil
	}
	plan, err := optimizeRegion(ctx, r, T, opts, prev)
	if err != nil || plan == nil {
		return nil, err
	}
	if err := plan.realize(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil // discretization failed: treat T as infeasible
	}
	return plan, nil
}

// finish turns a realized plan into a Result: buffer replacement (paper
// Section 5.4) when replace is set, the final validation, the optimized
// netlist and the areas. Replacement modifies the plan; without it the
// plan is only read. Runtime covers finish alone; callers that did more
// work overwrite it.
func (p *Plan) finish(ctx context.Context, replace bool) (*Result, error) {
	start := time.Now()
	r := p.R
	preFF, preLatch := p.NumUnits()
	preArea := p.InsertedArea()
	replaced := 0
	if replace {
		var err error
		if replaced, err = p.replaceBuffers(ctx); err != nil {
			return nil, err
		}
	}
	if vs := p.Validate(); len(vs) > 0 {
		return nil, fmt.Errorf("core: final plan invalid: %v", vs[0])
	}
	circuit, err := p.Apply()
	if err != nil {
		return nil, err
	}
	baseArea, err := r.Lib.CircuitArea(r.Work)
	if err != nil {
		return nil, err
	}
	area, err := r.Lib.CircuitArea(circuit)
	if err != nil {
		return nil, err
	}
	nf, nl := p.NumUnits()
	return &Result{
		Solver:         r.SolverStats(),
		Plan:           p,
		Circuit:        circuit,
		Period:         p.T,
		BaselinePeriod: r.Baseline.MinPeriod * p.Opts.Ru,
		BaselineArea:   baseArea,
		Area:           area,
		NumFFUnits:     nf,
		NumLatchUnits:  nl,
		NumBuffers:     p.NumBuffers(),
		RemovedFFs:     len(r.Removed),
		BufferReplaced: replaced,

		PreReplaceFFUnits:    preFF,
		PreReplaceLatchUnits: preLatch,
		PreReplaceArea:       preArea,
		InsertedArea:         p.InsertedArea(),

		Runtime: time.Since(start),
	}, nil
}

// ProgressEvent is one step of the period search as reported to an
// OptimizeObserved observer.
type ProgressEvent struct {
	// Stage is "probe" during the coarse descent, "refine" during the
	// fine search, and "replace" for the final buffer-replacement rerun.
	Stage    string
	T        float64 // period attempted
	Feasible bool
	// Solver holds the cumulative LP/MIP work counters up to and
	// including this step.
	Solver lp.Stats
}

// ProgressFunc observes period-search progress. It is called synchronously
// from the search goroutine and must not block for long.
type ProgressFunc func(ProgressEvent)

// DefaultStepFrac is the paper's period-search step: each probe lowers
// the target period by this fraction (0.5 %).
const DefaultStepFrac = 0.005

// OptimizeObserved runs the paper's period search: starting from the
// circuit's guard-banded baseline period (the caller typically provides
// a circuit already optimized by retiming&sizing), the target period is
// reduced in steps of stepFrac (paper: 0.5%) until the VirtualSync model
// becomes infeasible, and the last feasible solution is returned. The
// search checks ctx before every probed period and inside every solve
// (between simplex iterations and branch-and-bound nodes), returning
// ctx.Err() when the context ends. obs
// (when non-nil) receives one event per probed period and one for the
// final buffer-replacement pass, carrying cumulative solver work
// counters. The extracted region is the result's Plan.R.
func OptimizeObserved(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, opts Options, stepFrac float64, obs ProgressFunc) (*Result, error) {
	if stepFrac <= 0 {
		stepFrac = DefaultStepFrac
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	r, err := Extract(c, lib, opts.SelectFrac)
	if err != nil {
		return nil, err
	}
	// The model guards every delay with ru/rl margins, so the comparable
	// baseline is the margined minimum period: every term of the classic
	// period (tcq + path + tsu) scales by ru under the same guard band.
	T0 := r.Baseline.MinPeriod * opts.Ru
	// best is the last feasible plan; it also seeds the next probe.
	// atT0 is the baseline-period probe's plan, kept for
	// Result.AtBaselinePeriod.
	var best, atT0 *Plan
	// descend probes the periods T0·(1−frac(i)) for i = from, from+1, …
	// until stop consecutive probes fail or frac reaches 1, and returns
	// the frac of the last feasible probe (0 if none was). Each feasible
	// plan becomes best and seeds the next probe: its units are retargeted
	// instead of re-running the full relaxation pipeline. Buffer
	// replacement is pure area recovery; it runs once on the final plan,
	// not at every probe.
	descend := func(stage string, from, stop int, frac func(int) float64) (float64, error) {
		last := 0.0
		for i, fails := from, 0; fails < stop; i++ {
			f := frac(i)
			if f >= 1 {
				break
			}
			var p *Plan
			if T := T0 * (1 - f); T > 0 {
				err := ctx.Err()
				if err == nil {
					p, err = solvePeriod(ctx, r, T, opts, best)
				}
				if err != nil {
					return 0, err
				}
				if obs != nil {
					obs(ProgressEvent{Stage: stage, T: T, Feasible: p != nil, Solver: r.SolverStats()})
				}
			}
			if p == nil {
				fails++
				continue
			}
			fails = 0
			best, last = p, f
			if f == 0 {
				atT0 = p
			}
		}
		return last, nil
	}
	// Two-stage search: coarse steps (8x the refine step) descend quickly
	// to the infeasibility frontier, then the paper's fine steps refine
	// it. Isolated infeasible steps can be buffer-quantization artifacts,
	// so each stage tolerates a few consecutive failures before stopping.
	coarse := stepFrac * 8
	lastFeasibleFrac, err := descend("probe", 0, 2, func(k int) float64 { return coarse * float64(k) })
	if err != nil {
		return nil, err
	}
	if _, err := descend("refine", 1, 4, func(j int) float64 { return lastFeasibleFrac + stepFrac*float64(j) }); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible VirtualSync solution near the baseline period %g", T0)
	}
	replace := false
	if opts.BufferReplace {
		if obs != nil {
			obs(ProgressEvent{Stage: "replace", T: best.T, Feasible: true, Solver: r.SolverStats()})
		}
		// Re-solve the winning period from its own plan, then run the
		// area-recovery pass on the re-solved plan (DESIGN.md explains
		// why replacement does not start from best itself).
		p, err := solvePeriod(ctx, r, best.T, opts, best)
		if err != nil {
			return nil, err
		}
		if p != nil {
			best, replace = p, true
		}
	}
	res, err := best.finish(ctx, replace)
	if err != nil {
		return nil, err
	}
	res.atBaseline = atT0
	res.Runtime = time.Since(start)
	return res, nil
}
