package variation

import (
	"context"
	"fmt"
	"sort"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
)

// GuardBandPoint is one sweep sample: the optimizer run with symmetric
// margin m (Ru = 1+m, Rl = 1-m) and the measured yield of its output.
type GuardBandPoint struct {
	Margin float64
	Res    *core.Result
	Yield  float64
}

// sweepGuardBands re-runs the full period search once per margin and
// measures each winner's yield. Margins are swept in ascending order;
// a margin whose search finds no feasible solution is skipped (its
// point reports Res == nil and yield 0). The paper fixes Ru/Rl at
// 1.1/0.9 by fiat — the sweep replaces that constant with a measured
// trade-off curve between achieved period and timing yield.
//
// Each candidate is judged by its wave-window yield at its own achieved
// period: Samples, Seed, Workers and Model come from cfg; cfg.Periods
// is ignored.
func sweepGuardBands(ctx context.Context, c *netlist.Circuit, lib *celllib.Library,
	opts core.Options, stepFrac float64, margins []float64, cfg Config) ([]GuardBandPoint, error) {
	if len(margins) == 0 {
		return nil, fmt.Errorf("variation: guard-band tuning needs at least one margin")
	}
	ms := append([]float64(nil), margins...)
	sort.Float64s(ms)
	points := make([]GuardBandPoint, 0, len(ms))
	for _, m := range ms {
		if m < 0 || m >= 1 {
			return nil, fmt.Errorf("variation: guard-band margin %g out of [0,1)", m)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := opts
		o.Ru, o.Rl = 1+m, 1-m
		res, err := core.OptimizeObserved(ctx, c, lib, o, stepFrac, nil)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// No feasible solution under this margin: record and move on.
			points = append(points, GuardBandPoint{Margin: m})
			continue
		}
		wc, err := NewWaveCase(res, cfg.Model)
		if err != nil {
			return nil, err
		}
		mc := cfg
		mc.Periods = []float64{res.Period}
		r, err := Run(ctx, mc, wc)
		if err != nil {
			return nil, err
		}
		points = append(points, GuardBandPoint{Margin: m, Res: res, Yield: r.Yield(0)})
	}
	return points, nil
}

// TuneGuardBands sweeps the margins and returns the point achieving the
// smallest period among those whose measured yield reaches target
// (ties broken toward the smaller margin), together with the full
// sweep. It fails when no margin reaches the target.
func TuneGuardBands(ctx context.Context, c *netlist.Circuit, lib *celllib.Library,
	opts core.Options, stepFrac float64, margins []float64, target float64, cfg Config) (GuardBandPoint, []GuardBandPoint, error) {
	points, err := sweepGuardBands(ctx, c, lib, opts, stepFrac, margins, cfg)
	if err != nil {
		return GuardBandPoint{}, nil, err
	}
	best := -1
	for i, p := range points {
		if p.Res == nil || p.Yield < target {
			continue
		}
		if best < 0 || p.Res.Period < points[best].Res.Period-1e-9 {
			best = i
		}
	}
	if best < 0 {
		return GuardBandPoint{}, points, fmt.Errorf("variation: no guard-band margin reaches yield %g", target)
	}
	return points[best], points, nil
}
