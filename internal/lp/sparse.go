package lp

import (
	"fmt"
	"math"
)

// problem is a Model compiled to the solver's internal shape: every
// constraint row is an equality over sparse columns,
//
//	A x + s = b,
//
// where each row i owns one slack column s_i whose bounds encode the
// original relation (LE: s >= 0, GE: s <= 0, EQ: s = 0). Structural
// variables keep their model bounds natively — the bounded-variable
// simplex lets nonbasic variables rest at either bound, so boxed
// variables cost nothing extra (no mirrored columns, no bound rows,
// no artificial columns).
//
// The compiled form depends only on the model structure, objective and
// sense; variable bounds are read into per-solve working arrays so
// branch-and-bound nodes can tighten them without recompiling (and
// without mutating the shared Model).
type problem struct {
	m  int // constraint rows
	nv int // structural columns (model variables)
	n  int // total columns: nv structurals followed by m slacks

	colIdx [][]int32   // per column: row indices of nonzeros
	colVal [][]float64 // per column: values of nonzeros
	b      []float64   // right-hand sides, length m
	cost   []float64   // minimize-sense objective, length n (slacks zero)
	lb, ub []float64   // default bounds, length n
	flip   bool        // model sense was Maximize

	intVars []VarID // integer-restricted structural columns

	// infeasible is set when singleton-row presolve proves the model has
	// an empty feasible region (tightened bounds crossed). Unlike a
	// user-declared empty bound range this is a solve outcome, not a
	// modelling error.
	infeasible bool
}

// compile returns the cached compiled form, rebuilding it when the model
// was mutated since the last solve.
func (m *Model) compile() (*problem, error) {
	if m.prob != nil && !m.dirty {
		return m.prob, nil
	}
	nv := len(m.vars)
	lb := make([]float64, nv)
	ub := make([]float64, nv)
	p := &problem{nv: nv, flip: m.sense == Maximize}
	for j, v := range m.vars {
		if v.lb > v.ub+eps {
			return nil, fmt.Errorf("lp: variable %q has empty bound range [%g,%g]", v.name, v.lb, v.ub)
		}
		lb[j], ub[j] = v.lb, v.ub
		if v.integer {
			p.intVars = append(p.intVars, VarID(j))
		}
	}

	// Singleton-row presolve: a row a·x REL rhs is exactly a bound on x,
	// so fold it into the column instead of spending a basis row (and a
	// slack) on it. Empty rows are constant truths or contradictions.
	// Crossed bounds after folding mean the model is infeasible — a solve
	// outcome, not a modelling error like a user-declared empty range.
	keep := make([]int, 0, len(m.cons))
	for ci, con := range m.cons {
		switch len(con.terms) {
		case 0:
			switch con.rel {
			case LE:
				if con.rhs < -feasTol {
					p.infeasible = true
				}
			case GE:
				if con.rhs > feasTol {
					p.infeasible = true
				}
			case EQ:
				if math.Abs(con.rhs) > feasTol {
					p.infeasible = true
				}
			}
		case 1:
			t := con.terms[0]
			bound := con.rhs / t.Coeff
			rel := con.rel
			if t.Coeff < 0 && rel != EQ {
				if rel == LE {
					rel = GE
				} else {
					rel = LE
				}
			}
			j := t.Var
			if rel == LE || rel == EQ {
				if bound < ub[j] {
					ub[j] = bound
				}
			}
			if rel == GE || rel == EQ {
				if bound > lb[j] {
					lb[j] = bound
				}
			}
			if lb[j] > ub[j]+eps {
				p.infeasible = true
			}
		default:
			keep = append(keep, ci)
		}
	}

	rows := len(keep)
	p.m = rows
	p.n = nv + rows
	p.b = make([]float64, rows)
	p.colIdx = make([][]int32, p.n)
	p.colVal = make([][]float64, p.n)
	p.cost = make([]float64, p.n)
	p.lb = make([]float64, p.n)
	p.ub = make([]float64, p.n)
	copy(p.lb, lb)
	copy(p.ub, ub)
	for j, v := range m.vars {
		obj := v.obj
		if p.flip {
			obj = -obj
		}
		p.cost[j] = obj
	}
	for i, ci := range keep {
		con := m.cons[ci]
		p.b[i] = con.rhs
		for _, t := range con.terms {
			p.colIdx[t.Var] = append(p.colIdx[t.Var], int32(i))
			p.colVal[t.Var] = append(p.colVal[t.Var], t.Coeff)
		}
		sc := nv + i
		p.colIdx[sc] = []int32{int32(i)}
		p.colVal[sc] = []float64{1}
		switch con.rel {
		case LE:
			p.lb[sc], p.ub[sc] = 0, math.Inf(1)
		case GE:
			p.lb[sc], p.ub[sc] = math.Inf(-1), 0
		case EQ:
			p.lb[sc], p.ub[sc] = 0, 0
		}
	}
	m.prob = p
	m.dirty = false
	return p, nil
}

// defaultBounds returns fresh working copies of the compiled bounds.
func (p *problem) defaultBounds() (lb, ub []float64) {
	lb = append([]float64(nil), p.lb...)
	ub = append([]float64(nil), p.ub...)
	return lb, ub
}
