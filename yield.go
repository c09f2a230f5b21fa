package virtualsync

import (
	"context"

	"virtualsync/internal/variation"
)

// Re-exported variation-analysis types. See internal/variation for full
// documentation.
type (
	// VariationModel describes per-cell Gaussian delay variation
	// (global/inter-die and local/intra-die components).
	VariationModel = variation.Model
	// MonteCarloConfig parameterizes a Monte Carlo yield run: samples,
	// workers, seed, candidate periods and the variation model.
	MonteCarloConfig = variation.Config
	// YieldResult aggregates one Monte Carlo run: pass counts and
	// first-failing-constraint histograms per candidate period.
	YieldResult = variation.Result
	// YieldComparison holds baseline and optimized yields over one
	// shared period sweep.
	YieldComparison = variation.Comparison
	// GuardBandPoint is one guard-band sweep sample: margin, the
	// optimization it produced, and its measured yield.
	GuardBandPoint = variation.GuardBandPoint
)

// DefaultVariationModel returns a moderate 45nm-style variation model
// (2% inter-die sigma, library intra-die sigmas with a 5% fallback).
func DefaultVariationModel() VariationModel { return variation.DefaultModel() }

// Yield measures timing yield under process variation for both sides of
// one optimization: the FF-synchronized input circuit (classic STA per
// sample) and the VirtualSync-optimized circuit (wave-window validation
// per sample), over the same periods, samples and seed. Results are
// bit-identical for any worker count. When cfg.Periods is empty, a
// default sweep spans the optimized-to-baseline period range.
func Yield(ctx context.Context, base *Circuit, res *Result, lib *Library, cfg MonteCarloConfig) (*YieldComparison, error) {
	return variation.Compare(ctx, base, res, lib, cfg)
}

// TuneGuardBands replaces the paper's fixed 1.1/0.9 guard bands with a
// measured sweep: for each margin m the full period search runs with
// Ru = 1+m, Rl = 1-m and the winner's Monte Carlo yield at its own
// period is measured; the point with the smallest period among those
// reaching the target yield is returned, along with the whole sweep.
func TuneGuardBands(ctx context.Context, c *Circuit, lib *Library, opts Options, stepFrac float64,
	margins []float64, targetYield float64, cfg MonteCarloConfig) (GuardBandPoint, []GuardBandPoint, error) {
	return variation.TuneGuardBands(ctx, c, lib, opts, stepFrac, margins, targetYield, cfg)
}
