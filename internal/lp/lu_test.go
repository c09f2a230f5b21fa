package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Numeric-hygiene tests for the sparse LU layer: singular bases must be
// repaired (never NaN), the factorization residual must stay under
// tolerance across thousands of pivots, and the eta-file growth bound
// must actually bound the eta file.

// seedBasis builds a Basis with exactly the given columns basic and
// everything else resting at its lower bound.
func seedBasis(p *problem, basic []VarID) *Basis {
	stat := make([]byte, p.n)
	for j := range stat {
		stat[j] = atLower
	}
	for _, v := range basic {
		stat[v] = inBasis
	}
	return &Basis{m: p.m, n: p.n, stat: stat}
}

func TestLUSingularBasisRepairedNotNaN(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Model, []VarID) // model + columns to force basic
	}{
		{
			// Two identical columns: B = [[1,1],[1,1]], rank 1. The bump
			// eliminates one and the other collapses to an empty column.
			name: "duplicate-columns",
			build: func() (*Model, []VarID) {
				m := NewModel("sing")
				x := m.AddVar("x", 0, 10, -1)
				y := m.AddVar("y", 0, 10, -0.5)
				z := m.AddVar("z", 0, 10, -1)
				m.MustConstrain("c0", []Term{{x, 1}, {z, 1}, {y, 0.25}}, LE, 4)
				m.MustConstrain("c1", []Term{{x, 1}, {z, 1}, {y, 0.5}}, LE, 6)
				return m, []VarID{x, z}
			},
		},
		{
			// Nearly identical columns: elimination leaves a ~1e-13 pivot,
			// far below the singularity tolerance.
			name: "near-singular",
			build: func() (*Model, []VarID) {
				m := NewModel("sing")
				x := m.AddVar("x", 0, 10, -1)
				z := m.AddVar("z", 0, 10, -1)
				m.MustConstrain("c0", []Term{{x, 1}, {z, 1 + 1e-13}}, LE, 4)
				m.MustConstrain("c1", []Term{{x, 1}, {z, 1}}, LE, 6)
				return m, []VarID{x, z}
			},
		},
		{
			// Rank-2 triple: the third column is the sum of the first two,
			// caught only after two bump eliminations.
			name: "dependent-triple",
			build: func() (*Model, []VarID) {
				m := NewModel("sing")
				x := m.AddVar("x", 0, 10, -1)
				y := m.AddVar("y", 0, 10, -1)
				z := m.AddVar("z", 0, 10, -1)
				m.MustConstrain("c0", []Term{{x, 1}, {z, 1}}, LE, 4)
				m.MustConstrain("c1", []Term{{y, 1}, {z, 1}}, LE, 5)
				m.MustConstrain("c2", []Term{{x, 1}, {y, 1}, {z, 2}}, LE, 7)
				return m, []VarID{x, y, z}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, basic := tc.build()
			p, err := m.compile()
			if err != nil {
				t.Fatal(err)
			}
			lb, ub := p.defaultBounds()
			oracle, err := solveDense(p, lb, ub)
			if err != nil || oracle.status != Optimal {
				t.Fatalf("dense oracle: %v %v", oracle, err)
			}
			res, err := solveLP(nil, p, lb, ub, seedBasis(p, basic))
			if err != nil {
				t.Fatalf("lu solve from singular seed: %v", err)
			}
			if res.status != Optimal {
				t.Fatalf("status %v, want Optimal", res.status)
			}
			if res.stats.Repairs == 0 {
				t.Fatalf("singular basis went unrepaired: %+v", res.stats)
			}
			if math.IsNaN(res.obj) || math.IsInf(res.obj, 0) {
				t.Fatalf("objective not finite: %g", res.obj)
			}
			for j, v := range res.vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("vals[%d] not finite: %g", j, v)
				}
			}
			if diff := math.Abs(res.obj - oracle.obj); diff > 1e-7*(1+math.Abs(oracle.obj)) {
				t.Fatalf("objective %g diverged from oracle %g", res.obj, oracle.obj)
			}
		})
	}
}

// driveLU solves the model's LP with a hand-driven solver so the test
// can inspect kernel internals mid-flight. Returns the solver after
// phase 2 completes.
func driveLU(t *testing.T, m *Model, tune func(*luKernel)) *solver {
	t.Helper()
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := p.defaultBounds()
	s := newSolver(nil, p, lb, ub)
	if tune != nil {
		tune(s.kern.(*luKernel))
	}
	s.recomputeXB()
	if st, err := s.iterate(true); err != nil || st != Optimal {
		t.Fatalf("phase 1: %v %v", st, err)
	}
	if st, err := s.iterate(false); err != nil || st != Optimal {
		t.Fatalf("phase 2: %v %v", st, err)
	}
	return s
}

func TestLUResidualStaysUnderToleranceAcrossManyPivots(t *testing.T) {
	// Accumulate ≥10k genuine simplex pivots across perturbed
	// timing-shaped LPs on the LU kernel, asserting after every solve
	// that the factorized basis still reproduces the right-hand side:
	// ‖B·xB − b̃‖∞ ≤ resTol·(1+‖b̃‖∞).
	target := 10000
	if testing.Short() {
		target = 1500
	}
	pivots, refactors := 0, 0
	for seed := int64(1); pivots < target; seed++ {
		if seed > 64 {
			t.Fatalf("only %d pivots accumulated over %d solves", pivots, seed-1)
		}
		rng := rand.New(rand.NewSource(seed))
		m, _ := timingLP(rng, 600)
		s := driveLU(t, m, nil)
		pivots += s.st.Pivots()
		refactors += s.st.Refactors
		// Refresh b̃ and xB from the factorization, then measure how well
		// B·xB closes the equations — the factorization-quality residual.
		s.recomputeXB()
		norm := 0.0
		for _, v := range s.rhs {
			norm = math.Max(norm, math.Abs(v))
		}
		if r := s.residual(); r > resTol*(1+norm) {
			t.Fatalf("seed %d: residual %g over tolerance after %d pivots",
				seed, r, s.st.Pivots())
		}
		for i, v := range s.xB {
			if math.IsNaN(v) {
				t.Fatalf("seed %d: xB[%d] is NaN", seed, i)
			}
		}
	}
	if refactors == 0 {
		t.Fatalf("%d pivots without a single refactorization — eta policy dead", pivots)
	}
	t.Logf("%d pivots, %d refactorizations, residuals all under tolerance", pivots, refactors)
}

func TestLUEtaGrowthBoundEnforced(t *testing.T) {
	// Shrinking the eta-file bound must force proportionally more
	// refactorizations, and the file must never end a solve over the
	// bound (every over-bound update triggers an immediate refactor).
	cases := []struct {
		name    string
		maxEtas int
	}{
		{"tight-4", 4},
		{"default-ish-16", 16},
		{"loose-48", 48},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m, _ := timingLP(rng, 300)
			s := driveLU(t, m, func(lu *luKernel) { lu.maxEtas = tc.maxEtas })
			lu := s.kern.(*luKernel)
			if got := lu.kstats().Etas; got > tc.maxEtas {
				t.Fatalf("eta file ended at %d etas, bound %d", got, tc.maxEtas)
			}
			pivots := s.st.Pivots()
			if pivots == 0 {
				t.Fatal("no pivots — instance degenerate, test is vacuous")
			}
			// Every maxEtas-th pivot must have refactorized (bound flips
			// and small-pivot refactors only add to the count).
			if min := pivots/tc.maxEtas - 1; s.st.Refactors < min {
				t.Fatalf("%d pivots with bound %d: %d refactorizations, want ≥ %d",
					pivots, tc.maxEtas, s.st.Refactors, min)
			}
		})
	}
}

func TestLUKernelStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := timingLP(rng, 200)
	s := driveLU(t, m, nil)
	st := s.kern.(*luKernel).kstats()
	if st.FactorNnz < s.p.m {
		t.Fatalf("FactorNnz %d below m=%d (diagonal alone is m)", st.FactorNnz, s.p.m)
	}
	if st.Refactors == 0 {
		t.Fatalf("kernel counted no factorizations at all")
	}
}
