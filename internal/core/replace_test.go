package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
)

// suiteBaseline generates a suite circuit and its retiming&sizing
// baseline, the input the period search optimizes.
func suiteBaseline(t *testing.T, name string, lib *celllib.Library) *netlist.Circuit {
	t.Helper()
	spec, ok := gen.SpecByName(name)
	if !ok {
		t.Fatalf("unknown suite circuit %s", name)
	}
	c, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := retime.Baseline(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func writeBench(t *testing.T, c *netlist.Circuit) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := netlist.Write(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAtBaselinePeriodMatchesOptimizeAtPeriod holds the Fig. 8 result
// finished from the period search's first probe to a fresh
// single-period solve at the same period: same netlist, areas and
// counts on s5378, and nil from both on mem_ctrl, whose baseline period
// is infeasible. Finishing twice gives the same netlist and leaves the
// search's own result untouched.
func TestAtBaselinePeriodMatchesOptimizeAtPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two suite period searches")
	}
	ctx := context.Background()
	lib := celllib.Default()
	opts := DefaultOptions()
	for _, tc := range []struct {
		name     string
		feasible bool
	}{{"s5378", true}, {"mem_ctrl", false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := suiteBaseline(t, tc.name, lib)
			res, err := OptimizeObserved(ctx, base, lib, opts, DefaultStepFrac, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, circuit := res.Plan.clone(), writeBench(t, res.Circuit)
			got, err := res.AtBaselinePeriod(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := OptimizeAtPeriod(ctx, base, lib, res.BaselinePeriod, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.feasible {
				if got != nil || want != nil {
					t.Fatalf("AtBaselinePeriod nil=%v, OptimizeAtPeriod nil=%v; want both nil", got == nil, want == nil)
				}
				return
			}
			if got == nil || want == nil {
				t.Fatalf("AtBaselinePeriod nil=%v, OptimizeAtPeriod nil=%v; want both non-nil", got == nil, want == nil)
			}
			if !bytes.Equal(writeBench(t, got.Circuit), writeBench(t, want.Circuit)) {
				t.Error("netlists differ")
			}
			type summary struct {
				Period, Area, BaselineArea     float64
				FFs, Latches, Buffers, Replace int
			}
			sum := func(r *Result) summary {
				return summary{r.Period, r.Area, r.BaselineArea, r.NumFFUnits, r.NumLatchUnits, r.NumBuffers, r.BufferReplaced}
			}
			if sum(got) != sum(want) {
				t.Errorf("AtBaselinePeriod %+v, OptimizeAtPeriod %+v", sum(got), sum(want))
			}
			again, err := res.AtBaselinePeriod(ctx)
			if err != nil || again == nil {
				t.Fatalf("second AtBaselinePeriod: %v, nil=%v", err, again == nil)
			}
			if !bytes.Equal(writeBench(t, again.Circuit), writeBench(t, got.Circuit)) {
				t.Error("second AtBaselinePeriod gives a different netlist")
			}
			if !reflect.DeepEqual(res.Plan, plan) {
				t.Error("AtBaselinePeriod modified res.Plan")
			}
			if !bytes.Equal(writeBench(t, res.Circuit), circuit) {
				t.Error("AtBaselinePeriod modified res.Circuit")
			}
		})
	}
}

// TestTryUnitAtLeavesPlanUntouched tries every replacement candidate of
// the s5378 and mem_ctrl pre-replacement plans with every unit kind and
// phase, and requires the plan to be unchanged after each try, whether
// the try succeeds or not. Each try may run two repair LPs, one per
// window, nGuess and nGuess+1, where nGuess is the window of the edge's
// fast signal with its chain removed. Once the pass's twin exists, its
// probes start warm, so a try's cold starts count the repair LPs the
// twin found feasible, each solved cold once: at most two. A copy it
// returns places the unit in one of those two windows.
func TestTryUnitAtLeavesPlanUntouched(t *testing.T) {
	ctx := context.Background()
	tries, found, solves := 0, 0, 0
	for _, sp := range suitePlans(t)[:2] {
		p := sp.pre
		st, vs := p.propagate(p.env(ValidateParams{}))
		if st == nil || len(vs) > 0 {
			t.Fatalf("%s: pre-replacement plan does not propagate: %v", sp.name, vs)
		}
		rp := &replacePass{p: p, cands: p.replaceCandidates(UnitLatch)}
		if _, err := rp.fits(ctx, p); err != nil {
			t.Fatalf("%s: twin: %v", sp.name, err)
		}
		for _, cd := range rp.cands {
			ei := cd.ei
			probe := st.wEarly[ei] - p.ChainDelay[ei]*p.Opts.Rl
			for _, kind := range []UnitKind{UnitLatch, UnitFF} {
				for _, ph := range p.Opts.Phases {
					nGuess := int(math.Floor((probe - ph*p.T) / p.T))
					before := p.clone()
					stats := p.R.SolverStats()
					q, err := rp.tryUnitAt(ctx, ei, probe, kind, ph)
					if err != nil {
						t.Fatalf("%s edge %d kind %v phase %g: %v", sp.name, ei, kind, ph, err)
					}
					tries++
					spent := statsSince(p.R, stats).ColdStarts
					if spent > 2 {
						t.Fatalf("%s edge %d kind %v phase %g: %d cold repair solves, want at most 2", sp.name, ei, kind, ph, spent)
					}
					solves += spent
					if q != nil {
						found++
						if q == p {
							t.Fatalf("%s edge %d: tryUnitAt returned its receiver", sp.name, ei)
						}
						if u := q.Unit[ei]; u.Kind != kind || u.PhaseFrac != ph || (u.N != nGuess && u.N != nGuess+1) {
							t.Fatalf("%s edge %d: unit %+v, want %v at phase %g in window %d or %d", sp.name, ei, u, kind, ph, nGuess, nGuess+1)
						}
					}
					if !reflect.DeepEqual(p, before) {
						t.Fatalf("%s edge %d kind %v phase %g: tryUnitAt modified the plan", sp.name, ei, kind, ph)
					}
				}
			}
		}
	}
	if found == 0 || found == tries {
		t.Fatalf("%d of %d tries succeeded; want a mix of successes and failures", found, tries)
	}
	t.Logf("%d tries, %d succeeded, %d cold repair solves", tries, found, solves)
}

// TestCancelledReplacementReturnsError finishes with replacement under
// an already-cancelled context: the s5378 pre-replacement plan, Fig. 8's
// finish of a search result and an ECO re-optimization of its session.
// Each must return context.Canceled and no Result, never a plan whose
// replacement pass read the cancelled solves as infeasible tries, and
// the session must keep its state.
func TestCancelledReplacementReturnsError(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(what string, res *Result, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s under a cancelled context: result nil=%v, err %v; want no result and context.Canceled", what, res == nil, err)
		}
	}
	res, err := suitePlans(t)[0].pre.clone().finish(cancelled, true)
	check("finish", res, err)

	lib := celllib.Default()
	s, err := NewSession(context.Background(), suiteBaseline(t, "s5378", lib), lib, DefaultOptions(), DefaultStepFrac, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Result.AtBaselinePeriod(cancelled)
	check("AtBaselinePeriod", res, err)

	prev, circuit := s.Result, s.Circuit
	edit := ecoResizeScript(s.Circuit, lib, 1)
	res, _, err = s.Reoptimize(cancelled, edit)
	check("Reoptimize", res, err)
	if s.Result != prev || s.Circuit != circuit {
		t.Error("a cancelled Reoptimize advanced the session")
	}
}
