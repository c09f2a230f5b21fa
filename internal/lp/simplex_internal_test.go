package lp

import (
	"context"
	"math"
	"testing"
)

// These tests exercise the compiled sparse form and solver internals
// directly.

func TestCompileBoxedVariableAddsNoExtraRows(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", -3, 7, 1)
	y := m.AddVar("y", 0, 2, 1)
	m.MustConstrain("c", []Term{{x, 1}, {y, 1}}, GE, -1)
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of the bounded-variable form: a boxed variable is
	// just a column with finite bounds — no bound row, no mirror column.
	if p.m != 1 {
		t.Fatalf("rows = %d, want 1 (bounds must not add rows)", p.m)
	}
	if p.n != 3 { // x, y + one slack
		t.Fatalf("cols = %d, want 3", p.n)
	}
	if p.lb[x] != -3 || p.ub[x] != 7 {
		t.Fatalf("bounds = [%g,%g]", p.lb[x], p.ub[x])
	}
}

func TestCompileSlackBoundsEncodeRelations(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 0)
	m.MustConstrain("le", []Term{{x, 1}, {y, 1}}, LE, 4)
	m.MustConstrain("ge", []Term{{x, 1}, {y, 1}}, GE, 1)
	m.MustConstrain("eq", []Term{{x, 1}, {y, 1}}, EQ, 2)
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := p.nv
	if p.lb[sc] != 0 || !math.IsInf(p.ub[sc], 1) {
		t.Fatalf("LE slack bounds [%g,%g]", p.lb[sc], p.ub[sc])
	}
	if !math.IsInf(p.lb[sc+1], -1) || p.ub[sc+1] != 0 {
		t.Fatalf("GE slack bounds [%g,%g]", p.lb[sc+1], p.ub[sc+1])
	}
	if p.lb[sc+2] != 0 || p.ub[sc+2] != 0 {
		t.Fatalf("EQ slack bounds [%g,%g]", p.lb[sc+2], p.ub[sc+2])
	}
}

func TestPresolveFoldsSingletonRows(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", 0, Inf, 1)
	m.MustConstrain("ub", []Term{{x, 1}}, LE, 9)
	m.MustConstrain("lb", []Term{{x, -1}}, LE, -2) // -x <= -2  =>  x >= 2
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.m != 0 {
		t.Fatalf("singleton rows kept: m = %d", p.m)
	}
	if p.lb[x] != 2 || p.ub[x] != 9 {
		t.Fatalf("folded bounds = [%g,%g], want [2,9]", p.lb[x], p.ub[x])
	}
	sol, err := m.Solve(context.Background(), nil)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Value(x)-2) > 1e-9 {
		t.Fatalf("solve: %+v %v", sol, err)
	}
}

func TestPresolveDetectsCrossedSingletonBounds(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", 0, Inf, 1)
	m.MustConstrain("lo", []Term{{x, 1}}, GE, 6)
	m.MustConstrain("hi", []Term{{x, 1}}, LE, 5)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("want Infeasible, got %+v %v", sol, err)
	}
}

func TestCompileCachedUntilMutation(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", 0, 1, 1)
	m.MustConstrain("c", []Term{{x, 1}}, LE, 5)
	p1, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := m.compile()
	if p1 != p2 {
		t.Fatal("compile not cached across calls")
	}
	// SetBounds updates the cached form in place.
	m.SetBounds(x, 0, 2)
	p3, _ := m.compile()
	if p3 != p1 {
		t.Fatal("SetBounds recompiled the model")
	}
	if p3.ub[x] != 2 {
		t.Fatalf("re-bounded ub = %g", p3.ub[x])
	}
	// A structural edit invalidates it.
	m.SetObj(x, 2)
	p4, _ := m.compile()
	if p4 == p1 {
		t.Fatal("compile cache not invalidated by SetObj")
	}
	if p4.ub[x] != 2 || p4.cost[x] != 2 {
		t.Fatalf("recompiled ub = %g, cost = %g", p4.ub[x], p4.cost[x])
	}
}

func TestCompileRejectsEmptyRange(t *testing.T) {
	m := NewModel("b")
	m.AddVar("x", 3, 1, 0)
	if _, err := m.compile(); err == nil {
		t.Fatal("empty range accepted")
	}
}

// solverCtor builds a fresh all-slack solver over the given bounds.
type solverCtor func(p *problem, lb, ub []float64) *solver

// newSlackSolver is newSolver with the all-slack basis factorized, as
// solve does for a cold start, so a test can drive the phases by hand.
func newSlackSolver(p *problem, lb, ub []float64) *solver {
	s := newSolver(nil, p, lb, ub)
	s.kern.refactor(s.basis)
	return s
}

// bothKernels runs a subtest per basis kernel, the dense oracle and the
// production sparse LU kernel, so every kernel invariant below is enforced
// on both (the point of the kernel abstraction: one suite, two backends).
func bothKernels(t *testing.T, f func(t *testing.T, newS solverCtor)) {
	t.Helper()
	kernels := []struct {
		name string
		newS solverCtor
	}{
		{"dense", newDenseSolver},
		{"lu", newSlackSolver},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) { f(t, k.newS) })
	}
}

func TestKernelPivotUnitColumnInvariant(t *testing.T) {
	// After a basis change absorbs column e at a slot, B⁻¹A_e must be
	// exactly the unit vector of that slot (up to tolerance) — the
	// kernel-agnostic statement of "the pivot really updated the
	// inverse". The dense kernel additionally guarantees that sub-dropTol
	// dust never survives an update; for the LU kernel the same pivot is
	// an exact eta application. Both must satisfy the invariant.
	bothKernels(t, func(t *testing.T, newS solverCtor) {
		m := NewModel("b")
		x := m.AddVar("x", 0, Inf, 1)
		y := m.AddVar("y", 0, Inf, 1)
		m.MustConstrain("c1", []Term{{x, 2}, {y, 1}}, LE, 4)
		m.MustConstrain("c2", []Term{{x, 1}, {y, 3}}, LE, 6)
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := p.defaultBounds()
		s := newS(p, lb, ub)
		s.recomputeXB()
		s.ftran(int(x))
		leaving := int(s.basis[0])
		s.kern.update(0, int(x), s.alpha)
		s.basis[0] = int32(x)
		s.stat[x] = inBasis
		s.stat[leaving] = atLower
		s.ftran(int(x))
		for i := 0; i < p.m; i++ {
			want := 0.0
			if i == 0 {
				want = 1
			}
			if math.Abs(s.alpha[i]-want) > 1e-9 {
				t.Fatalf("B⁻¹A_e[%d] = %g, want %g", i, s.alpha[i], want)
			}
		}
		// The other basic column (slack of row 1) must still solve to a
		// unit vector too: the update may not corrupt unrelated slots.
		s.ftran(int(s.basis[1]))
		for i := 0; i < p.m; i++ {
			want := 0.0
			if i == 1 {
				want = 1
			}
			if math.Abs(s.alpha[i]-want) > 1e-9 {
				t.Fatalf("B⁻¹A_b1[%d] = %g, want %g", i, s.alpha[i], want)
			}
		}
	})
}

func TestKernelBtranMatchesFtran(t *testing.T) {
	// yᵀA_j computed via btran must equal cBᵀ(B⁻¹A_j) computed via
	// ftran — the two solves are transposes of each other, on any kernel.
	bothKernels(t, func(t *testing.T, newS solverCtor) {
		m := NewModel("b")
		x := m.AddVar("x", 0, 9, 3)
		y := m.AddVar("y", 0, 9, -2)
		z := m.AddVar("z", -4, 4, 1)
		m.MustConstrain("c1", []Term{{x, 2}, {y, 1}, {z, -1}}, LE, 4)
		m.MustConstrain("c2", []Term{{x, 1}, {y, 3}}, GE, 1)
		m.MustConstrain("c3", []Term{{y, 1}, {z, 5}}, EQ, 2)
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := p.defaultBounds()
		s := newS(p, lb, ub)
		s.recomputeXB()
		// Pivot a couple of structurals in to make B non-trivial.
		for _, e := range []int{int(x), int(y)} {
			s.ftran(e)
			slot := -1
			for i := 0; i < p.m; i++ {
				if math.Abs(s.alpha[i]) > 0.5 && int(s.basis[i]) >= p.nv {
					slot = i
					break
				}
			}
			if slot < 0 {
				t.Fatalf("no pivot slot for col %d", e)
			}
			leaving := int(s.basis[slot])
			s.kern.update(slot, e, s.alpha)
			s.basis[slot] = int32(e)
			s.stat[e] = inBasis
			s.stat[leaving] = atLower
		}
		cB := make([]float64, p.m)
		for i := 0; i < p.m; i++ {
			cB[i] = float64(i + 1)
		}
		yv := make([]float64, p.m)
		s.kern.btran(cB, yv)
		for j := 0; j < p.n; j++ {
			dot := 0.0
			for k, r := range p.colIdx[j] {
				dot += yv[r] * p.colVal[j][k]
			}
			s.ftran(j)
			viaF := 0.0
			for i := 0; i < p.m; i++ {
				viaF += cB[i] * s.alpha[i]
			}
			if math.Abs(dot-viaF) > 1e-9 {
				t.Fatalf("col %d: btran %g vs ftran %g", j, dot, viaF)
			}
		}
	})
}

func TestBasisRoundTripSolvesInZeroPhase1Pivots(t *testing.T) {
	// Re-solving the identical problem from its own optimal basis should
	// need no phase-1 pivots at all. Warm seeding runs on the LU kernel.
	t.Run("lu", func(t *testing.T) {
		m := NewModel("b")
		x := m.AddVar("x", 0, 10, -1)
		y := m.AddVar("y", 0, 10, -2)
		m.MustConstrain("c1", []Term{{x, 1}, {y, 1}}, LE, 12)
		m.MustConstrain("c2", []Term{{x, 1}, {y, 3}}, LE, 30)
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := p.defaultBounds()
		cold, err := solveLP(nil, p, lb, ub, nil)
		if err != nil || cold.status != Optimal {
			t.Fatalf("cold solve: %v %v", cold, err)
		}
		warm, err := solveLP(nil, p, lb, ub, cold.basis)
		if err != nil || warm.status != Optimal {
			t.Fatalf("warm solve: %v %v", warm, err)
		}
		if warm.stats.WarmStarts != 1 {
			t.Fatalf("warm start not taken: %+v", warm.stats)
		}
		if warm.stats.Phase1Pivots != 0 {
			t.Fatalf("phase-1 pivots on a round-trip basis: %+v", warm.stats)
		}
		if math.Abs(warm.obj-cold.obj) > 1e-9 {
			t.Fatalf("objectives differ: %g vs %g", warm.obj, cold.obj)
		}
	})
}

func TestIncompatibleSeedIgnored(t *testing.T) {
	bothKernels(t, func(t *testing.T, newS solverCtor) {
		m := NewModel("b")
		x := m.AddVar("x", 0, 1, 1)
		m.MustConstrain("c", []Term{{x, 1}}, LE, 1)
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := p.defaultBounds()
		bad := &Basis{m: 99, n: 99, stat: make([]byte, 99)}
		res, err := newS(p, lb, ub).solve(bad)
		if err != nil || res.status != Optimal {
			t.Fatalf("solve with bad seed: %v %v", res, err)
		}
		if res.stats.WarmStarts != 0 || res.stats.ColdStarts != 1 {
			t.Fatalf("bad seed was not ignored: %+v", res.stats)
		}
	})
}

func TestSolutionValueAccessor(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("x", 2, 2, 1)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 2 {
		t.Fatalf("Value = %g", sol.Value(x))
	}
}

func TestVarNameAndCounts(t *testing.T) {
	m := NewModel("b")
	x := m.AddVar("xvar", 0, 1, 0)
	m.MustConstrain("c", []Term{{x, 1}}, LE, 1)
	if m.VarName(x) != "xvar" || m.NumVars() != 1 || m.NumConstraints() != 1 {
		t.Fatal("metadata accessors wrong")
	}
	lb, ub := m.Bounds(x)
	if lb != 0 || ub != 1 {
		t.Fatal("Bounds wrong")
	}
	m.SetObj(x, 5)
	if m.vars[x].obj != 5 {
		t.Fatal("SetObj wrong")
	}
}
