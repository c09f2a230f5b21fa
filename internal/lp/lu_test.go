package lp

import (
	"math"
	"math/rand"
	"slices"
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
	s := newSlackSolver(p, lb, ub)
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
			if got := len(lu.etaPiv); got > tc.maxEtas {
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
	lu := s.kern.(*luKernel)
	if nnz := len(lu.lval) + len(lu.uval) + lu.m; nnz < s.p.m {
		t.Fatalf("factor nonzeros %d below m=%d (diagonal alone is m)", nnz, s.p.m)
	}
	if s.st.Refactors == 0 {
		t.Fatalf("solver counted no refactorizations at all")
	}
}

// TestLURefactorUStepsAscend refactors random bases of random and timing
// LPs, all on one kernel per problem, and checks that each U column
// lists its entries in strictly ascending elimination step, each before
// the column's own step (refactor gathers them without sorting), and
// that the reused kernel factors exactly as a fresh one does.
func TestLURefactorUStepsAscend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		var m *Model
		if trial%3 == 0 {
			m, _ = timingLP(rng, 20+rng.Intn(60))
		} else {
			m = randomLP(rng)
		}
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		k := newLUKernel(p)
		for round := 0; round < 5; round++ {
			basis := make([]int32, p.m)
			for i, j := range rng.Perm(p.n)[:p.m] {
				basis[i] = int32(j)
			}
			if _, ok := k.refactor(basis); !ok {
				t.Fatal("refactor declined")
			}
			for step := 0; step < p.m; step++ {
				prev := int32(-1)
				for idx := k.uptr[step]; idx < k.uptr[step+1]; idx++ {
					if s := k.urow[idx]; s <= prev || s >= int32(step) {
						t.Fatalf("trial %d round %d: U column of step %d lists step %d after %d", trial, round, step, s, prev)
					}
					prev = k.urow[idx]
				}
			}
			fresh := newLUKernel(p)
			fresh.refactor(append([]int32(nil), basis...))
			ints := [][2][]int32{{k.pstep, fresh.pstep}, {k.qstep, fresh.qstep}, {k.lptr, fresh.lptr},
				{k.lrow, fresh.lrow}, {k.uptr, fresh.uptr}, {k.urow, fresh.urow}}
			floats := [][2][]float64{{k.ud, fresh.ud}, {k.lval, fresh.lval}, {k.uval, fresh.uval}}
			same := true
			for _, f := range ints {
				same = same && slices.Equal(f[0], f[1])
			}
			for _, f := range floats {
				same = same && slices.Equal(f[0], f[1])
			}
			if !same {
				t.Fatalf("trial %d round %d: the reused kernel factors differently from a fresh one", trial, round)
			}
		}
	}
}

// gatherBtran is the dense BTRAN the kernel's sparse one replaced, kept
// as its oracle: the eta transposes newest to oldest, each a gather over
// all of the eta's slots, then Uᵀ as a gather over U's columns and Lᵀ
// over every step. It reads the kernel's factors and eta file only.
func gatherBtran(k *luKernel, cB, y []float64) {
	m := k.m
	c := append([]float64(nil), cB...)
	for g := len(k.etaPiv) - 1; g >= 0; g-- {
		r := k.etaPiv[g]
		t := c[r]
		for idx := k.etaPtr[g]; idx < k.etaPtr[g+1]; idx++ {
			t -= k.etaVal[idx] * c[k.etaIdx[idx]]
		}
		c[r] = t / k.etaPivVal[g]
	}
	z := make([]float64, m)
	for kk := 0; kk < m; kk++ {
		t := c[k.qstep[kk]]
		for idx := k.uptr[kk]; idx < k.uptr[kk+1]; idx++ {
			t -= k.uval[idx] * z[k.urow[idx]]
		}
		z[kk] = t / k.ud[kk]
	}
	for kk := 0; kk < m; kk++ {
		y[k.pstep[kk]] = z[kk]
	}
	for kk := m - 1; kk >= 0; kk-- {
		lo, hi := k.lptr[kk], k.lptr[kk+1]
		if lo == hi {
			continue
		}
		acc := 0.0
		for idx := lo; idx < hi; idx++ {
			acc += k.lval[idx] * y[k.lrow[idx]]
		}
		y[k.pstep[kk]] -= acc
	}
}

// sameBits reports whether a and b are the same float64, bit for bit,
// with +0 and −0 counted as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// btranAgainstGather factorizes basis on a fresh kernel, then grows its
// eta file one pivot at a time up to etas long (at most the kernel's
// bound), and after every step requires btran to equal gatherBtran bit
// for bit on pricing vectors of every density: sigma-like ±1 vectors,
// random costs, all-zero and dense. Entering columns and pivot slots
// are drawn from rng; a slot qualifies when |alpha| ≥ 1e-3.
func btranAgainstGather(t testing.TB, p *problem, rng *rand.Rand, basis []int32, etas int) {
	t.Helper()
	k := newLUKernel(p)
	k.refactor(basis)
	m := p.m
	alpha := make([]float64, m)
	cB := make([]float64, m)
	got, want := make([]float64, m), make([]float64, m)
	check := func() {
		for _, density := range []float64{0, 0.05, 0.2, 0.6, 1} {
			sigma := rng.Intn(2) == 0
			for i := range cB {
				cB[i] = 0
				if rng.Float64() >= density {
					continue
				}
				if sigma {
					cB[i] = float64(2*rng.Intn(2) - 1)
				} else {
					cB[i] = rng.NormFloat64()
				}
			}
			k.btran(cB, got)
			gatherBtran(k, cB, want)
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("m=%d, %d etas, density %g: y[%d] = %x, gather gives %x",
						m, len(k.etaPiv), density, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
	check()
	for len(k.etaPiv) < min(etas, k.maxEtas) {
		e := rng.Intn(p.n)
		k.ftranCol(e, alpha)
		slot := -1
		for tries := 0; tries < 8 && slot < 0; tries++ {
			if i := rng.Intn(m); math.Abs(alpha[i]) >= 1e-3 {
				slot = i
			}
		}
		if slot < 0 {
			for i, a := range alpha {
				if math.Abs(a) >= 1e-3 {
					slot = i
					break
				}
			}
		}
		if slot < 0 {
			continue // e is (numerically) in the span of nothing: draw again
		}
		k.update(slot, e, alpha)
		check()
	}
}

// btranBasis draws a basis for p: a random set of columns, or, with
// timing set, the optimal basis of a solve, the kind of basis pricing
// meets on the production LPs.
func btranBasis(t testing.TB, p *problem, rng *rand.Rand, timing bool) []int32 {
	t.Helper()
	basis := make([]int32, 0, p.m)
	if timing {
		res, err := solveLP(nil, p, p.lb, p.ub, nil)
		if err == nil && res.basis != nil {
			for j, st := range res.basis.stat {
				if st == inBasis {
					basis = append(basis, int32(j))
				}
			}
			return basis
		}
	}
	for _, j := range rng.Perm(p.n)[:p.m] {
		basis = append(basis, int32(j))
	}
	return basis
}

// TestBtranMatchesGatherReference holds the kernel's sparse BTRAN to the
// dense gather it replaced, bit for bit, over random and timing-LP
// bases with eta files from empty to the kernel's bound.
func TestBtranMatchesGatherReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 48; trial++ {
		var m *Model
		timing := trial%2 == 0
		if timing {
			m, _ = timingLP(rng, 20+rng.Intn(180))
		} else {
			m = randomLP(rng)
		}
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		if p.m == 0 {
			continue
		}
		btranAgainstGather(t, p, rng, btranBasis(t, p, rng, timing && trial%4 == 0), luMaxEtas)
	}
}

// FuzzBtranMatchesGather is TestBtranMatchesGatherReference on fuzzed
// shapes: the seed draws the model (a timing LP of up to 300 stages or
// a random LP), the basis and the pricing vectors, and etas sets the
// eta file's final length.
func FuzzBtranMatchesGather(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), uint8(64))
	f.Add(int64(2), uint16(130), uint8(1), uint8(17))
	f.Add(int64(3), uint16(0), uint8(2), uint8(3))
	f.Add(int64(4), uint16(300), uint8(3), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, stages uint16, kind, etas uint8) {
		rng := rand.New(rand.NewSource(seed))
		var m *Model
		timing := kind%2 == 0
		if timing {
			m, _ = timingLP(rng, 2+int(stages%300))
		} else {
			m = randomLP(rng)
		}
		p, err := m.compile()
		if err != nil || p.m == 0 {
			t.Skip()
		}
		basis := btranBasis(t, p, rng, timing && kind%4 == 0)
		btranAgainstGather(t, p, rng, basis, int(etas)%(luMaxEtas+1))
	})
}
