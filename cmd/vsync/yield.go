package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"virtualsync"
	"virtualsync/internal/core"
	"virtualsync/internal/expt"
)

// runYield is "vsync yield": it runs the flow on a circuit, then Monte
// Carlo samples per-cell Gaussian delays and reports the fraction of
// samples in which the FF-synchronized baseline and the optimized
// circuit still meet timing, across a sweep of clock periods. With
// -tune it sweeps guard-band margins instead. The report is
// deterministic: the same -seed gives byte-identical output for any
// -workers value and any GOMAXPROCS; timing lines go to stderr. The
// flag set keeps the name of the former vyield command, so its usage
// text is unchanged.
func runYield(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vyield", flag.ContinueOnError)
	libPath := fs.String("lib", "", "cell library file (default: built-in vs45)")
	benchName := fs.String("bench", "", "generate a built-in benchmark instead of reading a file")
	step := fs.Float64("step", core.DefaultStepFrac, "period-search step fraction")
	frac := fs.Float64("frac", virtualsync.DefaultOptions().SelectFrac, "critical-path selection fraction")
	skipBaseline := fs.Bool("skip-baseline", false, "assume the input is already retimed and sized")

	samples := fs.Int("samples", 1000, "Monte Carlo samples")
	seed := fs.Uint64("seed", 1, "Monte Carlo seed (same seed => byte-identical report)")
	workers := fs.Int("workers", 0, "evaluation goroutines (0 = GOMAXPROCS; never changes results)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	periodsFlag := fs.String("periods", "", "comma-separated candidate periods (default: auto sweep)")

	gsigma := fs.Float64("gsigma", 0.02, "global (inter-die) relative sigma")
	lscale := fs.Float64("lscale", 1, "scale on per-cell local sigmas (0 disables local variation)")
	dsigma := fs.Float64("dsigma", 0.05, "fallback sigma for cells without one")
	minFactor := fs.Float64("minfactor", 0.05, "lower clamp on sampled delay factors")

	tune := fs.Bool("tune", false, "sweep guard-band margins instead of fixed 1.1/0.9")
	marginsFlag := fs.String("margins", "0.02,0.05,0.1,0.15,0.2", "guard-band margins for -tune")
	target := fs.Float64("target", 0.95, "target yield for -tune")
	if ok, err := parseFlags(fs, args, out); !ok {
		return err
	}

	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	var periods []float64
	if *periodsFlag != "" {
		var err error
		if periods, err = parseFloats(*periodsFlag); err != nil {
			return err
		}
	}

	lib, err := loadLib(*libPath)
	if err != nil {
		return err
	}
	c, err := loadCircuit(*benchName, fs.Arg(0))
	if err != nil {
		return err
	}

	base := c
	if !*skipBaseline {
		b, err := virtualsync.RetimeAndSize(c, lib)
		if err != nil {
			return err
		}
		base = b.Circuit
		fmt.Fprintf(os.Stderr, "retiming&sizing baseline: T = %.2f\n", b.Period)
	}

	mc := virtualsync.MonteCarloConfig{
		Samples: *samples,
		Workers: *workers,
		Seed:    *seed,
		Periods: periods,
		Model: virtualsync.VariationModel{
			GlobalSigma:  *gsigma,
			LocalScale:   *lscale,
			DefaultSigma: *dsigma,
			MinFactor:    *minFactor,
		},
	}

	opts := virtualsync.DefaultOptions()
	opts.SelectFrac = *frac

	if *tune {
		margins, err := parseFloats(*marginsFlag)
		if err != nil {
			return err
		}
		return runTune(ctx, out, base, lib, opts, *step, margins, *target, mc, *timeout)
	}

	t0 := time.Now()
	res, err := virtualsync.OptimizeCtx(ctx, base, lib, opts, *step)
	if err != nil {
		return timeoutErr(err, *timeout)
	}
	fmt.Fprintf(os.Stderr, "virtualsync: T %.2f -> %.2f in %v\n",
		res.BaselinePeriod, res.Period, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	cmp, err := virtualsync.Yield(ctx, base, res, lib, mc)
	if err != nil {
		return timeoutErr(err, *timeout)
	}
	fmt.Fprintf(os.Stderr, "monte carlo: 2x %d samples on %d workers in %v\n",
		cmp.Opt.Samples, cmp.Opt.Workers, time.Since(t0).Round(time.Millisecond))

	fmt.Fprint(out, expt.FormatYield([]*expt.YieldResult{{Name: base.Name, Cmp: cmp}}))
	return nil
}

// runTune sweeps guard-band margins and prints the measured
// period/yield trade-off plus the winning margin. When no margin
// reaches the target the sweep is still printed and the run fails.
func runTune(ctx context.Context, out io.Writer, base *virtualsync.Circuit, lib *virtualsync.Library,
	opts virtualsync.Options, step float64, margins []float64, target float64,
	mc virtualsync.MonteCarloConfig, timeout time.Duration) error {
	best, points, err := virtualsync.TuneGuardBands(ctx, base, lib, opts, step, margins, target, mc)
	if err != nil && len(points) == 0 {
		return timeoutErr(err, timeout)
	}
	fmt.Fprintf(out, "Guard-band sweep (%s, %d samples, seed %d, target yield %.3f)\n",
		base.Name, mc.Samples, mc.Seed, target)
	fmt.Fprintf(out, "  %8s  %10s  %8s\n", "margin", "period", "yield")
	for _, p := range points {
		if p.Res == nil {
			fmt.Fprintf(out, "  %8.3f  %10s  %8s\n", p.Margin, "infeasible", "-")
			continue
		}
		fmt.Fprintf(out, "  %8.3f  %10.3f  %8.3f\n", p.Margin, p.Res.Period, p.Yield)
	}
	if err != nil {
		fmt.Fprintf(out, "no margin reaches yield %.3f\n", target)
		return errReported
	}
	fmt.Fprintf(out, "selected margin %.3f: Ru=%.3f Rl=%.3f, period %.3f, yield %.3f\n",
		best.Margin, 1+best.Margin, 1-best.Margin, best.Res.Period, best.Yield)
	return nil
}

// timeoutErr names the -timeout flag when err is the run's deadline.
func timeoutErr(err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("run exceeded -timeout %v", timeout)
	}
	return err
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
