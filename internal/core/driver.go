package core

import (
	"context"
	"fmt"
	"os"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
)

// debugEnabled turns on period-search tracing via VSYNC_DEBUG=1.
var debugEnabled = os.Getenv("VSYNC_DEBUG") != ""

func debugf(format string, args ...interface{}) {
	if debugEnabled {
		fmt.Fprintf(os.Stderr, "vsync: "+format+"\n", args...)
	}
}

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

	// Pre-buffer-replacement state (paper Fig. 6/7): unit and buffer
	// counts and the area of all inserted hardware before Section 5.4.
	PreReplaceFFUnits    int
	PreReplaceLatchUnits int
	PreReplaceBuffers    int
	PreReplaceArea       float64
	// InsertedArea is the area of inserted units and buffers after
	// replacement.
	InsertedArea float64

	// Solver totals the LP/MIP work behind this result — simplex pivots,
	// warm-start reuse, branch-and-bound nodes — summed over every solve
	// of the period search (or of the single target period).
	Solver lp.Stats

	Runtime time.Duration
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

// OptimizeAtPeriod attempts to realize clock period T on the circuit's
// critical part. It returns (nil, nil) when T is infeasible under the
// VirtualSync model; cancellation or deadline expiry of ctx aborts the
// attempt with ctx.Err().
func OptimizeAtPeriod(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, T float64, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	r, err := Extract(c, lib, ExtractOptions{SelectFrac: opts.SelectFrac})
	if err != nil {
		return nil, err
	}
	return optimizeExtracted(ctx, r, c, lib, T, opts, nil, opts.BufferReplace)
}

func optimizeExtracted(ctx context.Context, r *Region, c *netlist.Circuit, lib *celllib.Library, T float64, opts Options, prev *Plan, doReplace bool) (*Result, error) {
	start := time.Now()
	// Logic outside the region is untouched and must still meet T under
	// the same guard band.
	if T < r.ExternalPeriod*opts.Ru-1e-9 {
		return nil, nil
	}
	plan, err := optimizeRegion(ctx, r, T, opts, prev)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, nil
	}
	if err := plan.realize(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil // discretization failed: treat T as infeasible
	}
	preFF, preLatch := plan.NumUnits()
	preBufs := plan.NumBuffers()
	preArea := plan.InsertedArea()
	replaced := 0
	if doReplace {
		replaced = plan.replaceBuffers(ctx)
	}
	if vs := plan.Validate(); len(vs) > 0 {
		return nil, fmt.Errorf("core: final plan invalid: %v", vs[0])
	}
	circuit, err := plan.Apply()
	if err != nil {
		return nil, err
	}
	baseArea, err := lib.CircuitArea(c)
	if err != nil {
		return nil, err
	}
	area, err := lib.CircuitArea(circuit)
	if err != nil {
		return nil, err
	}
	nf, nl := plan.NumUnits()
	return &Result{
		Solver:         r.SolverStats(),
		Plan:           plan,
		Circuit:        circuit,
		Period:         T,
		BaselinePeriod: r.Baseline.MinPeriod * opts.Ru,
		BaselineArea:   baseArea,
		Area:           area,
		NumFFUnits:     nf,
		NumLatchUnits:  nl,
		NumBuffers:     plan.NumBuffers(),
		RemovedFFs:     len(r.Removed),
		BufferReplaced: replaced,

		PreReplaceFFUnits:    preFF,
		PreReplaceLatchUnits: preLatch,
		PreReplaceBuffers:    preBufs,
		PreReplaceArea:       preArea,
		InsertedArea:         plan.InsertedArea(),

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

// OptimizeObserved runs the paper's period search: starting from the
// circuit's guard-banded baseline period (the caller typically provides
// a circuit already optimized by retiming&sizing), the target period is
// reduced in steps of stepFrac (paper: 0.5%) until the VirtualSync model
// becomes infeasible, and the last feasible solution is returned. The
// search checks ctx before every probed period and inside the
// legalization rounds, returning ctx.Err() when the context ends. obs
// (when non-nil) receives one event per probed period and one for the
// final buffer-replacement pass, carrying cumulative solver work
// counters.
func OptimizeObserved(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, opts Options, stepFrac float64, obs ProgressFunc) (*Result, error) {
	res, _, err := optimizeSearch(ctx, c, lib, opts, stepFrac, obs)
	return res, err
}

// optimizeSearch is the period search behind OptimizeObserved. It also
// returns the extracted region so callers (the ECO session) can keep it
// for later incremental re-optimization.
func optimizeSearch(ctx context.Context, c *netlist.Circuit, lib *celllib.Library, opts Options, stepFrac float64, obs ProgressFunc) (*Result, *Region, error) {
	if stepFrac <= 0 {
		stepFrac = 0.005
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	r, err := Extract(c, lib, ExtractOptions{SelectFrac: opts.SelectFrac})
	if err != nil {
		return nil, nil, err
	}
	// The model guards every delay with ru/rl margins, so the comparable
	// baseline is the margined minimum period: every term of the classic
	// period (tcq + path + tsu) scales by ru under the same guard band.
	T0 := r.Baseline.MinPeriod * opts.Ru
	var best *Result
	// Two-stage search: coarse steps (8x the refine step) descend quickly
	// to the infeasibility frontier, then the paper's fine steps refine
	// it. Isolated infeasible steps can be buffer-quantization artifacts,
	// so each stage tolerates a few consecutive failures before stopping.
	var prev *Plan
	tryAt := func(stage string, T float64) (*Result, error) {
		if T <= 0 {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		// Buffer replacement is pure area recovery; it runs once on the
		// final result, not at every probed period.
		res, err := optimizeExtracted(ctx, r, c, lib, T, opts, prev, false)
		if err == nil && res != nil {
			// Retarget this plan's unit placements at the next period
			// instead of re-running the full relaxation pipeline.
			prev = res.Plan
		}
		debugf("T=%.2f feasible=%v hint=%v in %v", T, res != nil, prev != nil, time.Since(t0).Round(time.Millisecond))
		if obs != nil && err == nil {
			obs(ProgressEvent{Stage: stage, T: T, Feasible: res != nil, Solver: r.SolverStats()})
		}
		return res, err
	}
	coarse := stepFrac * 8
	lastFeasibleFrac := 0.0
	fails := 0
	for k := 0; fails < 2; k++ {
		frac := coarse * float64(k)
		if frac >= 1 {
			break
		}
		res, err := tryAt("probe", T0*(1-frac))
		if err != nil {
			return nil, nil, err
		}
		if res == nil {
			fails++
			continue
		}
		fails = 0
		best = res
		lastFeasibleFrac = frac
	}
	fails = 0
	for j := 1; fails < 4; j++ {
		frac := lastFeasibleFrac + stepFrac*float64(j)
		if frac >= 1 {
			break
		}
		res, err := tryAt("refine", T0*(1-frac))
		if err != nil {
			return nil, nil, err
		}
		if res == nil {
			fails++
			continue
		}
		fails = 0
		best = res
	}
	if best == nil {
		return nil, nil, fmt.Errorf("core: no feasible VirtualSync solution near the baseline period %g", T0)
	}
	if opts.BufferReplace {
		if obs != nil {
			obs(ProgressEvent{Stage: "replace", T: best.Period, Feasible: true, Solver: r.SolverStats()})
		}
		// Re-run the winning period once with the area-recovery pass.
		res, err := optimizeExtracted(ctx, r, c, lib, best.Period, opts, prev, true)
		if err != nil {
			return nil, nil, err
		}
		if res != nil {
			best = res
		}
	}
	best.BaselinePeriod = T0
	best.Solver = r.SolverStats()
	best.Runtime = time.Since(start)
	return best, r, nil
}
