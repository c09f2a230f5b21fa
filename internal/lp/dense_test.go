package lp

import "testing"

// denseKernel is the historical dense B⁻¹, kept verbatim as the
// differential oracle the production LU kernel is tested against. It
// cannot refactorize, so it only ever runs cold solves (see solveDense).
type denseKernel struct {
	p    *problem
	binv [][]float64 // dense B⁻¹, m×m, rows in slot space
}

func newDenseKernel(p *problem) *denseKernel {
	k := &denseKernel{p: p, binv: make([][]float64, p.m)}
	flat := make([]float64, p.m*p.m)
	for i := range k.binv {
		k.binv[i] = flat[i*p.m : (i+1)*p.m]
		k.binv[i][i] = 1
	}
	return k
}

func (k *denseKernel) ftranCol(e int, alpha []float64) {
	idx, val := k.p.colIdx[e], k.p.colVal[e]
	for i := 0; i < k.p.m; i++ {
		row := k.binv[i]
		sum := 0.0
		for kk, r := range idx {
			sum += row[r] * val[kk]
		}
		alpha[i] = sum
	}
}

func (k *denseKernel) ftranVec(rhs, x []float64) {
	for i := 0; i < k.p.m; i++ {
		row := k.binv[i]
		sum := 0.0
		for kk, rk := range rhs {
			if rk != 0 {
				sum += row[kk] * rk
			}
		}
		x[i] = sum
	}
}

func (k *denseKernel) btran(cB, y []float64) {
	m := k.p.m
	for kk := 0; kk < m; kk++ {
		y[kk] = 0
	}
	for i := 0; i < m; i++ {
		c := cB[i]
		if c == 0 {
			continue
		}
		for kk, v := range k.binv[i] {
			if v != 0 {
				y[kk] += c * v
			}
		}
	}
}

// update applies the rank-one basis change: column e enters at the given
// slot (alpha already holds B⁻¹A_e). Sub-epsilon multipliers are skipped
// and sub-epsilon residues zeroed after each row update, so numerical
// dust neither spreads through B⁻¹ nor creeps into later ratio tests.
func (k *denseKernel) update(slot, e int, alpha []float64) bool {
	br := k.binv[slot]
	inv := 1 / alpha[slot]
	for kk, v := range br {
		if v != 0 {
			v *= inv
			if v < dropTol && v > -dropTol {
				v = 0
			}
			br[kk] = v
		}
	}
	for i := range k.binv {
		if i == slot {
			continue
		}
		a := alpha[i]
		if a < dropTol && a > -dropTol {
			continue
		}
		bi := k.binv[i]
		for kk, w := range br {
			if w == 0 {
				continue
			}
			v := bi[kk] - a*w
			if v < dropTol && v > -dropTol {
				v = 0
			}
			bi[kk] = v
		}
	}
	return false
}

func (k *denseKernel) refactor([]int32) ([][2]int32, bool) { return nil, false }

// newDenseSolver is newSolver with the dense oracle substituted for the
// LU kernel. The all-slack start basis is the identity in both.
func newDenseSolver(p *problem, lb, ub []float64) *solver {
	s := newSolver(nil, p, lb, ub)
	s.kern = newDenseKernel(p)
	return s
}

// solveDense is the oracle's cold solve of the compiled problem over the
// given bounds. It never takes a seed: the dense kernel cannot factorize
// a seeded basis.
func solveDense(p *problem, lb, ub []float64) (*lpResult, error) {
	if p.infeasible() {
		return &lpResult{status: Infeasible}, nil
	}
	return newDenseSolver(p, lb, ub).solve(nil)
}

// solveModelDense is the oracle's cold solve of a model's LP relaxation,
// the test-side counterpart of Model.Solve on a pure LP.
func solveModelDense(t *testing.T, m *Model) *lpResult {
	t.Helper()
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := p.defaultBounds()
	res, err := solveDense(p, lb, ub)
	if err != nil {
		t.Fatalf("dense oracle: %v", err)
	}
	return res
}

// defaultBounds returns fresh working copies of the compiled bounds.
func (p *problem) defaultBounds() (lb, ub []float64) {
	lb = append([]float64(nil), p.lb...)
	ub = append([]float64(nil), p.ub...)
	return lb, ub
}
