package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Differential property tests: the production sparse LU kernel is held to
// the dense kernel — the battle-tested oracle in dense_test.go — on
// randomly generated bounded LPs. Status must match exactly, objectives
// within 1e-7 (relative), and on continuously-distributed instances
// (unique optimum with probability 1) the basic-variable sets must be
// identical.

// randomLP builds a random bounded LP with continuous data. Most columns
// are boxed; a few are one-sided or free. Rows mix LE/GE/EQ.
func randomLP(rng *rand.Rand) *Model {
	m := NewModel("diff")
	nv := 3 + rng.Intn(18)
	nc := 2 + rng.Intn(14)
	vars := make([]VarID, nv)
	for j := 0; j < nv; j++ {
		lo := -5 + 10*rng.Float64()
		hi := lo + 0.5 + 9*rng.Float64()
		switch rng.Intn(10) {
		case 0:
			hi = Inf
		case 1:
			lo = -Inf
		}
		cost := rng.NormFloat64()
		vars[j] = m.AddVar("v", lo, hi, cost)
	}
	for i := 0; i < nc; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if rng.Float64() < 0.35 {
				terms = append(terms, Term{vars[j], rng.NormFloat64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{vars[rng.Intn(nv)], 1 + rng.Float64()})
		}
		rel := LE
		switch rng.Intn(6) {
		case 0:
			rel = GE
		case 1:
			rel = EQ
		}
		m.MustConstrain("c", terms, rel, 4*rng.NormFloat64())
	}
	if rng.Intn(2) == 0 {
		// Half the instances maximise: they minimise the negated objective.
		for _, v := range vars {
			m.SetObj(v, -m.vars[v].obj)
		}
	}
	return m
}

// solveBoth solves the model's pure LP cold with each kernel.
func solveBoth(t *testing.T, m *Model) (dense, lu *lpResult) {
	t.Helper()
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := p.defaultBounds()
	dense, err = solveDense(p, lb, ub)
	if err != nil && dense.status != IterLimit {
		t.Fatalf("dense solve: %v", err)
	}
	lb2, ub2 := p.defaultBounds()
	lu, err = solveLP(nil, p, lb2, ub2, nil)
	if err != nil && lu.status != IterLimit {
		t.Fatalf("lu solve: %v", err)
	}
	return dense, lu
}

// compareKernels holds the LU result to the dense oracle. strictBasis
// additionally requires identical basic-variable sets (valid when the
// instance data is continuous, hence the optimum is unique a.s.).
func compareKernels(t *testing.T, dense, lu *lpResult, strictBasis bool) {
	t.Helper()
	if dense.status == IterLimit || lu.status == IterLimit {
		t.Skip("iteration limit — no verdict")
	}
	if dense.status != lu.status {
		t.Fatalf("status diverged: dense %v vs lu %v", dense.status, lu.status)
	}
	if dense.status != Optimal {
		return
	}
	if math.IsNaN(lu.obj) || math.IsInf(lu.obj, 0) {
		t.Fatalf("lu objective not finite: %g", lu.obj)
	}
	if diff := math.Abs(dense.obj - lu.obj); diff > 1e-7*(1+math.Abs(dense.obj)) {
		t.Fatalf("objective diverged: dense %.12g vs lu %.12g (diff %g)",
			dense.obj, lu.obj, diff)
	}
	if !strictBasis {
		return
	}
	if dense.basis == nil || lu.basis == nil || len(dense.basis.stat) != len(lu.basis.stat) {
		t.Fatalf("missing basis snapshots")
	}
	for j := range dense.basis.stat {
		db := dense.basis.stat[j] == inBasis
		lb := lu.basis.stat[j] == inBasis
		if db != lb {
			t.Fatalf("basic-variable sets diverged at column %d: dense-basic=%v lu-basic=%v",
				j, db, lb)
		}
	}
}

func TestLUDifferentialRandomLPs(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		m := randomLP(rng)
		t.Run("", func(t *testing.T) {
			dense, lu := solveBoth(t, m)
			compareKernels(t, dense, lu, true)
		})
	}
}

func TestLUDifferentialTimingLPs(t *testing.T) {
	// The shape the solver actually sees in production: chain difference
	// constraints from the timing model (see warmstart_test.go).
	for _, n := range []int{10, 60, 200} {
		rng := rand.New(rand.NewSource(int64(77 + n)))
		m, _ := timingLP(rng, n)
		dense, lu := solveBoth(t, m)
		compareKernels(t, dense, lu, true)
	}
}

func TestLUDifferentialWarmCross(t *testing.T) {
	// The dense oracle's optimal basis seeding an LU re-solve, and the LU
	// kernel's own optimal basis seeding another, must both land on the
	// oracle's cold optimum; the detailed pivot accounting lives in
	// warmstart_test.go — here we assert the differential contract
	// survives warm starts from either kernel's basis.
	rng := rand.New(rand.NewSource(9))
	m, _ := timingLP(rng, 80)
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := p.defaultBounds()
	dense, err := solveDense(p, lb, ub)
	if err != nil || dense.status != Optimal {
		t.Fatalf("dense: %v %v", dense, err)
	}
	lu, err := solveLP(nil, p, lb, ub, dense.basis)
	if err != nil || lu.status != Optimal {
		t.Fatalf("lu warm from dense: %v %v", lu, err)
	}
	compareKernels(t, dense, lu, false)
	lu2, err := solveLP(nil, p, lb, ub, lu.basis)
	if err != nil || lu2.status != Optimal {
		t.Fatalf("lu warm from lu: %v %v", lu2, err)
	}
	compareKernels(t, dense, lu2, false)
}

// decodeFuzzLP turns a byte string into a small LP with small-integer
// data. Integer coefficients make ties and degeneracy common — exactly
// the inputs where two differently-pricing kernels could drift apart if
// either mishandled a pivot, a repair, or a refactorization.
func decodeFuzzLP(data []byte) *Model {
	if len(data) < 4 {
		return nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nv := 1 + int(next()%8)
	nc := 1 + int(next()%8)
	m := NewModel("fuzz")
	negate := next()&1 == 1 // maximise, as the minimum of the negated objective
	vars := make([]VarID, nv)
	for j := 0; j < nv; j++ {
		lo := float64(int8(next())) / 4
		hi := float64(int8(next())) / 4
		if lo > hi {
			lo, hi = hi, lo
		}
		switch next() % 8 {
		case 0:
			hi = Inf
		case 1:
			lo = -Inf
		case 2:
			lo, hi = -Inf, Inf
		}
		cost := float64(int8(next())) / 8
		if negate {
			cost = -cost
		}
		vars[j] = m.AddVar("v", lo, hi, cost)
	}
	for i := 0; i < nc; i++ {
		var terms []Term
		mask := next()
		for j := 0; j < nv; j++ {
			if mask&(1<<(uint(j)%8)) != 0 {
				c := float64(int8(next())) / 4
				if c != 0 {
					terms = append(terms, Term{vars[j], c})
				}
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := Rel(next() % 3)
		rhs := float64(int8(next())) / 2
		m.MustConstrain("c", terms, rel, rhs)
	}
	return m
}

// FuzzLUFactorVsDense is the native differential fuzz target: any byte
// string becomes a small LP solved cold by both kernels, which must agree
// on status and objective; an LU re-solve seeded from the oracle's
// optimal basis must agree too. Degenerate instances admit multiple
// optimal bases, so the basic-set comparison is deliberately not enforced
// here (the property test above covers it on continuous data).
func FuzzLUFactorVsDense(f *testing.F) {
	f.Add([]byte("virtualsync-lp"))
	f.Add([]byte{3, 2, 0, 10, 20, 3, 1, 200, 100, 0, 255, 7, 5, 9, 1, 2, 3, 4})
	f.Add([]byte{8, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(42))
	long := make([]byte, 96)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeFuzzLP(data)
		if m == nil {
			t.Skip()
		}
		p, err := m.compile()
		if err != nil {
			t.Skip() // empty bound range — a modelling error, not a solve
		}
		lb, ub := p.defaultBounds()
		dense, derr := solveDense(p, lb, ub)
		lb2, ub2 := p.defaultBounds()
		lu, lerr := solveLP(nil, p, lb2, ub2, nil)
		if derr != nil || lerr != nil ||
			dense.status == IterLimit || lu.status == IterLimit {
			t.Skip() // no verdict without both finishing cleanly
		}
		agree := func(what string, got *lpResult) {
			if dense.status != got.status {
				t.Fatalf("%s: status diverged: dense %v vs lu %v", what, dense.status, got.status)
			}
			if dense.status != Optimal {
				return
			}
			if math.IsNaN(got.obj) || math.IsInf(got.obj, 0) {
				t.Fatalf("%s: lu objective not finite: %g", what, got.obj)
			}
			if diff := math.Abs(dense.obj - got.obj); diff > 1e-7*(1+math.Abs(dense.obj)) {
				t.Fatalf("%s: objective diverged: dense %.12g vs lu %.12g (diff %g)",
					what, dense.obj, got.obj, diff)
			}
		}
		agree("cold", lu)
		if dense.status != Optimal {
			return
		}
		lb3, ub3 := p.defaultBounds()
		warm, werr := solveLP(nil, p, lb3, ub3, dense.basis)
		if werr != nil || warm.status == IterLimit {
			t.Skip()
		}
		agree("warm", warm)
	})
}
