package expt

import (
	"context"
	"fmt"
	"math"
	"strings"

	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/retime"
	"virtualsync/internal/variation"
)

// YieldResult is one circuit's Monte Carlo timing-yield comparison: the
// FF-synchronized baseline against the VirtualSync-optimized circuit
// over a shared period sweep.
type YieldResult struct {
	Name string
	Cmp  *variation.Comparison
}

// RunYield prepares each named benchmark exactly like RunCircuit
// (sizing, retiming, sizing), runs the VirtualSync period search, and
// then measures both circuits' timing yield with the Monte Carlo engine
// in internal/variation. An empty names list runs the paper's whole
// suite.
func RunYield(ctx context.Context, names []string, cfg Config, mc variation.Config) ([]*YieldResult, error) {
	specs := gen.PaperSuite()
	if len(names) > 0 {
		var sel []gen.Spec
		for _, n := range names {
			s, ok := gen.SpecByName(n)
			if !ok {
				return nil, fmt.Errorf("expt: unknown benchmark %q", n)
			}
			sel = append(sel, s)
		}
		specs = sel
	}
	out := make([]*YieldResult, 0, len(specs))
	for _, spec := range specs {
		c, err := gen.Generate(spec)
		if err != nil {
			return nil, err
		}
		base, _, err := retime.Baseline(c, cfg.Lib)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", spec.Name, err)
		}
		res, err := core.OptimizeCtx(ctx, base, cfg.Lib, cfg.Opts, cfg.StepFrac)
		if err != nil {
			return nil, fmt.Errorf("%s: virtualsync: %v", spec.Name, err)
		}
		cmp, err := variation.Compare(ctx, base, res, cfg.Lib, mc)
		if err != nil {
			return nil, fmt.Errorf("%s: monte carlo: %v", spec.Name, err)
		}
		out = append(out, &YieldResult{Name: spec.Name, Cmp: cmp})
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-12s yield @Topt %.2f: base %.3f vsync %.3f  (@Tbase %.2f: base %.3f)\n",
				spec.Name, cmp.TOpt, cmp.Base.YieldAt(cmp.TOpt), cmp.Opt.YieldAt(cmp.TOpt),
				cmp.TBase, cmp.Base.YieldAt(cmp.TBase))
		}
	}
	return out, nil
}

// FormatYield renders the yield-vs-period curves as a text table, one
// block per circuit. Output is deterministic for a fixed seed: rows are
// in ascending period order and fail modes are count-sorted with
// alphabetical tie-breaks.
func FormatYield(rows []*YieldResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timing yield under process variation (Monte Carlo)\n")
	for _, r := range rows {
		cmp := r.Cmp
		fmt.Fprintf(&b, "\n%s  (Topt %.2f, Tbase %.2f, %d samples, seed %d)\n",
			r.Name, cmp.TOpt, cmp.TBase, cmp.Opt.Samples, cmp.Opt.Seed)
		fmt.Fprintf(&b, "  %10s  %9s  %9s  %s\n", "period", "yield(ff)", "yield(vs)", "first-fail(vs)")
		for i, T := range cmp.Opt.Periods {
			mark := " "
			switch {
			case close2(T, cmp.TOpt):
				mark = "*"
			case close2(T, cmp.TBase):
				mark = "+"
			}
			fmt.Fprintf(&b, " %s%10.3f  %9.3f  %9.3f  %s\n",
				mark, T, cmp.Base.Yield(i), cmp.Opt.Yield(i), failSummary(cmp.Opt, i))
		}
	}
	fmt.Fprintf(&b, "\n(* = optimized period, + = guard-banded baseline period)\n")
	return b.String()
}

// failSummary compacts one period's first-fail histogram into
// "check(count) check(count) ...", capped at three modes.
func failSummary(res *variation.Result, i int) string {
	modes := res.FailModes(i)
	if len(modes) == 0 {
		return "-"
	}
	if len(modes) > 3 {
		modes = modes[:3]
	}
	parts := make([]string, len(modes))
	for j, m := range modes {
		parts[j] = fmt.Sprintf("%s(%d)", m, res.FirstFail[i][m])
	}
	return strings.Join(parts, " ")
}

func close2(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
