package core

import (
	"context"
	"testing"

	"virtualsync/internal/lp"
)

func wavePipeRegion(t *testing.T) *Region {
	t.Helper()
	c := wavePipe(t)
	lib := paperLib(t)
	r, err := Extract(c, lib, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildModelModes(t *testing.T) {
	r := wavePipeRegion(t)
	nE := len(r.Edges)
	opts := DefaultOptions()

	emul := &modelSpec{T: 10, opts: opts, modes: make([]EdgeMode, nE)}
	mvE, err := r.buildModel(emul)
	if err != nil {
		t.Fatal(err)
	}

	plain := &modelSpec{T: 10, opts: opts, modes: make([]EdgeMode, nE)}
	for i := range plain.modes {
		plain.modes[i] = ModePlain
	}
	mvP, err := r.buildModel(plain)
	if err != nil {
		t.Fatal(err)
	}
	if mvP.m.NumVars() >= mvE.m.NumVars() {
		t.Fatalf("plain model not smaller: %d vs %d vars", mvP.m.NumVars(), mvE.m.NumVars())
	}

	exact := &modelSpec{T: 10, opts: opts, modes: make([]EdgeMode, nE)}
	exact.modes[0] = ModeExact
	mvX, err := r.buildModel(exact)
	if err != nil {
		t.Fatal(err)
	}
	if len(mvX.cases[0]) != 1+2*len(opts.Phases) {
		t.Fatalf("exact cases = %d, want 1+2*%d", len(mvX.cases[0]), len(opts.Phases))
	}

	noLatch := opts
	noLatch.UseLatches = false
	exactNL := &modelSpec{T: 10, opts: noLatch, modes: make([]EdgeMode, nE)}
	exactNL.modes[0] = ModeExact
	mvNL, err := r.buildModel(exactNL)
	if err != nil {
		t.Fatal(err)
	}
	if len(mvNL.cases[0]) != 1+len(opts.Phases) {
		t.Fatalf("no-latch cases = %d, want 1+%d", len(mvNL.cases[0]), len(opts.Phases))
	}
}

// TestFrozenSpecMarksUnitFreeEdgesPlain: frozenSpec freezes a unit on
// every edge that carries one and leaves every other edge a plain
// pass-through, so an all-unit-free plan builds the all-plain model.
func TestFrozenSpecMarksUnitFreeEdgesPlain(t *testing.T) {
	r := wavePipeRegion(t)
	nE := len(r.Edges)
	opts := DefaultOptions()
	units := make([]Placement, nE)
	units[0] = Placement{Kind: UnitFF, PhaseFrac: 0.25, N: 1}
	spec := frozenSpec(10, opts, units)
	for ei, m := range spec.modes {
		want := ModePlain
		if ei == 0 {
			want = ModeFixed
		}
		if m != want {
			t.Fatalf("edge %d: mode %d, want %d", ei, m, want)
		}
	}

	free, err := r.buildModel(frozenSpec(10, opts, make([]Placement, nE)))
	if err != nil {
		t.Fatal(err)
	}
	plain := &modelSpec{T: 10, opts: opts, modes: make([]EdgeMode, nE)}
	for ei := range plain.modes {
		plain.modes[ei] = ModePlain
	}
	mvPlain, err := r.buildModel(plain)
	if err != nil {
		t.Fatal(err)
	}
	if free.m.NumVars() != mvPlain.m.NumVars() || free.m.NumConstraints() != mvPlain.m.NumConstraints() {
		t.Fatalf("unit-free frozen model has %d vars, %d rows; plain model %d, %d",
			free.m.NumVars(), free.m.NumConstraints(), mvPlain.m.NumVars(), mvPlain.m.NumConstraints())
	}
}

func TestSolveSpecInfeasible(t *testing.T) {
	r := wavePipeRegion(t)
	nE := len(r.Edges)
	// T=1 is absurd: even a single gate delay exceeds it.
	spec := &modelSpec{T: 1, opts: DefaultOptions(), modes: make([]EdgeMode, nE)}
	_, sol, err := r.solveSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sol != nil {
		t.Fatal("T=1 should be infeasible")
	}
}

func TestNoLatchOptimization(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	opts := DefaultOptions()
	opts.UseLatches = false
	res, err := OptimizeObserved(context.Background(), c, lib, opts, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLatchUnits != 0 {
		t.Fatalf("latches inserted although disabled: %d", res.NumLatchUnits)
	}
	if res.NumFFUnits == 0 {
		t.Fatal("the loop still needs a sequential unit (FF)")
	}
	if vs := res.Plan.Validate(); len(vs) > 0 {
		t.Fatalf("invalid plan: %v", vs)
	}
}

func TestSinglePhaseOptimization(t *testing.T) {
	c := loopCircuit(t)
	lib := paperLib(t)
	opts := DefaultOptions()
	opts.Phases = []float64{0}
	res, err := OptimizeObserved(context.Background(), c, lib, opts, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Plan.Unit {
		if u.Kind != UnitNone && u.PhaseFrac != 0 {
			t.Fatalf("phase %g used although only phase 0 allowed", u.PhaseFrac)
		}
	}
}

func TestAffineHelpers(t *testing.T) {
	m := lp.NewModel("t")
	x := m.AddVar("x", 0, 10, 0)
	a := varAff(x, 2).plusConst(3).plus(constAff(1)).scaled(2)
	if a.c != 8 || len(a.terms) != 1 || a.terms[0].Coeff != 4 {
		t.Fatalf("affine arithmetic wrong: %+v", a)
	}
}

func TestUnitCostEquivalent(t *testing.T) {
	r := wavePipeRegion(t)
	ff := unitCostEquivalent(r, UnitFF)
	lt := unitCostEquivalent(r, UnitLatch)
	if ff <= 0 || lt <= 0 || lt >= ff {
		t.Fatalf("unit costs: ff=%g latch=%g (latch should be cheaper)", ff, lt)
	}
	if unitCostEquivalent(r, UnitNone) != 0 {
		t.Fatal("an edge without a unit has no unit cost")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.SelectFrac = 0 },
		func(o *Options) { o.SelectFrac = 1.5 },
		func(o *Options) { o.Ru = 0.9 },
		func(o *Options) { o.Rl = 1.2 },
		func(o *Options) { o.Rl = 0 },
		func(o *Options) { o.Phases = nil },
		func(o *Options) { o.Phases = []float64{1.5} },
	}
	for i, mod := range bad {
		o := DefaultOptions()
		mod(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	o := DefaultOptions()
	o.SelectFrac = 0
	if _, err := OptimizeObserved(context.Background(), wavePipe(t), paperLib(t), o, 0.01, nil); err == nil {
		t.Error("Optimize accepted invalid options")
	}
}
