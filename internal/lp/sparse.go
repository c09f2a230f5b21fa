package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
// The compiled form depends only on the model structure and objective.
// A pure LP solves over its compiled bounds, which the solver
// only reads; branch-and-bound copies them into one working pair per
// tree so nodes can tighten them without recompiling (and without
// mutating the shared Model). Model.SetBounds re-bounds one
// column of the compiled form in place (rebound), so a caller that
// re-solves one model under changing bounds compiles it once.
type problem struct {
	m  int // constraint rows
	nv int // structural columns (model variables)
	n  int // total columns: nv structurals followed by m slacks

	colIdx [][]int32   // per column: row indices of nonzeros
	colVal [][]float64 // per column: values of nonzeros
	b      []float64   // right-hand sides, length m
	cost   []float64   // objective, length n (slacks zero)
	lb, ub []float64   // default bounds, length n

	// intVars are the integer-restricted structural columns whose bounds
	// leave more than one value, in ascending order: a column pinned
	// (lb = ub) at an integer is fixed, so a model whose integer columns
	// are all pinned solves as a plain LP, with no branch-and-bound node.
	intVars []VarID

	// folds holds, per structural column, the singleton rows presolve
	// folded into its bounds, in model order.
	folds [][]fold
	// emptyRowFalse is set when an empty row is a contradiction, and
	// crossed counts the structural columns whose folded bounds cross.
	// Either proves the model has an empty feasible region: unlike a
	// user-declared empty bound range this is a solve outcome, not a
	// modelling error.
	emptyRowFalse bool
	crossed       int
}

// fold is a singleton row a·x REL rhs as the bound "x rel bound", its
// relation already flipped for a negative coefficient.
type fold struct {
	rel   Rel
	bound float64
}

// infeasible reports whether presolve proved the feasible region empty.
func (p *problem) infeasible() bool { return p.emptyRowFalse || p.crossed > 0 }

// rebound recomputes structural column j's compiled bounds from the
// variable's model bounds and its folded singleton rows, and updates
// its intVars membership and the crossed count. The variable's own
// bounds must not cross (compile reports that as a modelling error).
func (p *problem) rebound(j int, v variable) {
	if p.lb[j] > p.ub[j]+eps {
		p.crossed--
	}
	lb, ub := v.lb, v.ub
	for _, f := range p.folds[j] {
		if (f.rel == LE || f.rel == EQ) && f.bound < ub {
			ub = f.bound
		}
		if (f.rel == GE || f.rel == EQ) && f.bound > lb {
			lb = f.bound
		}
	}
	p.lb[j], p.ub[j] = lb, ub
	if lb > ub+eps {
		p.crossed++
	}
	if !v.integer {
		return
	}
	k := sort.Search(len(p.intVars), func(i int) bool { return p.intVars[i] >= VarID(j) })
	listed := k < len(p.intVars) && p.intVars[k] == VarID(j)
	pinned := v.lb == v.ub && v.lb == math.Round(v.lb)
	switch {
	case !pinned && !listed:
		p.intVars = slices.Insert(p.intVars, k, VarID(j))
	case pinned && listed:
		p.intVars = slices.Delete(p.intVars, k, k+1)
	}
}

// compile returns the cached compiled form, rebuilding it when the model
// was mutated since the last solve.
func (m *Model) compile() (*problem, error) {
	if m.prob != nil && !m.dirty {
		return m.prob, nil
	}
	nv := len(m.vars)
	p := &problem{nv: nv, folds: make([][]fold, nv)}
	for _, v := range m.vars {
		if v.lb > v.ub+eps {
			return nil, fmt.Errorf("lp: variable %q has empty bound range [%g,%g]", v.name, v.lb, v.ub)
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
				p.emptyRowFalse = p.emptyRowFalse || con.rhs < -feasTol
			case GE:
				p.emptyRowFalse = p.emptyRowFalse || con.rhs > feasTol
			case EQ:
				p.emptyRowFalse = p.emptyRowFalse || math.Abs(con.rhs) > feasTol
			}
		case 1:
			t := con.terms[0]
			rel := con.rel
			if t.Coeff < 0 && rel != EQ {
				if rel == LE {
					rel = GE
				} else {
					rel = LE
				}
			}
			p.folds[t.Var] = append(p.folds[t.Var], fold{rel, con.rhs / t.Coeff})
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
	for j, v := range m.vars {
		p.rebound(j, v)
	}
	for j, v := range m.vars {
		p.cost[j] = v.obj
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
