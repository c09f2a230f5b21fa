// Package lp implements a linear-programming solver (bounded-variable
// revised primal simplex over a sparse column form, with Dantzig pricing
// and a Bland anti-cycling fallback) and a warm-started, sequential
// best-first branch-and-bound wrapper for mixed-integer programs. It plays
// the role of the commercial ILP solver (Gurobi) used in the VirtualSync
// paper.
//
// The modelling API supports free, bounded, integer and binary variables,
// <=, >= and = constraints, and a minimized objective.
// Problem sizes targeted are the critical-part timing models of the
// reproduction: a few thousand variables and constraints, with at most a
// few dozen integer variables.
package lp

import (
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Inf is the bound used for "unbounded" variable sides.
var Inf = math.Inf(1)

// VarID names a variable within a Model.
type VarID int

// Term is one coefficient*variable entry of a linear expression.
type Term struct {
	Var   VarID
	Coeff float64
}

type variable struct {
	name    string
	lb, ub  float64
	obj     float64
	integer bool
}

type constraint struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
}

// Model is a mixed-integer linear program under construction.
type Model struct {
	name string
	vars []variable
	cons []constraint

	// prob caches the compiled sparse form; dirty marks it stale after a
	// mutation. Branch-and-bound nodes never mutate the model (they carry
	// private bound overrides), so one compile serves the whole tree.
	prob  *problem
	dirty bool
}

// NewModel returns an empty minimization model.
func NewModel(name string) *Model {
	return &Model{name: name}
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a continuous variable with bounds [lb, ub] (use -Inf/Inf for
// free sides) and objective coefficient obj.
func (m *Model) AddVar(name string, lb, ub, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lb: lb, ub: ub, obj: obj})
	m.dirty = true
	return VarID(len(m.vars) - 1)
}

// AddIntVar adds an integer variable with bounds [lb, ub].
func (m *Model) AddIntVar(name string, lb, ub, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lb: lb, ub: ub, obj: obj, integer: true})
	m.dirty = true
	return VarID(len(m.vars) - 1)
}

// AddBinVar adds a {0,1} variable.
func (m *Model) AddBinVar(name string, obj float64) VarID {
	return m.AddIntVar(name, 0, 1, obj)
}

// SetObj overwrites the objective coefficient of v.
func (m *Model) SetObj(v VarID, obj float64) { m.vars[v].obj = obj; m.dirty = true }

// SetBounds overwrites the bounds of v. It updates the compiled form in
// place, so re-solving the model under new bounds costs no recompile; an
// empty range leaves compile to report it.
func (m *Model) SetBounds(v VarID, lb, ub float64) {
	m.vars[v].lb, m.vars[v].ub = lb, ub
	if m.prob == nil || m.dirty || lb > ub+eps {
		m.dirty = true
		return
	}
	m.prob.rebound(int(v), m.vars[v])
}

// Bounds returns the bounds of v.
func (m *Model) Bounds(v VarID) (lb, ub float64) { return m.vars[v].lb, m.vars[v].ub }

// VarName returns the name of v.
func (m *Model) VarName(v VarID) string { return m.vars[v].name }

// AddConstraint adds the linear constraint "terms rel rhs". Terms with
// duplicate variables are accumulated.
func (m *Model) AddConstraint(name string, terms []Term, rel Rel, rhs float64) error {
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(m.vars) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
	}
	m.cons = append(m.cons, constraint{
		name:  name,
		terms: mergeTerms(terms),
		rel:   rel,
		rhs:   rhs,
	})
	m.dirty = true
	return nil
}

// MustConstrain is AddConstraint but panics on error; for model builders
// whose variable IDs are known-valid.
func (m *Model) MustConstrain(name string, terms []Term, rel Rel, rhs float64) {
	if err := m.AddConstraint(name, terms, rel, rhs); err != nil {
		panic(err)
	}
}

func mergeTerms(terms []Term) []Term {
	idx := make(map[VarID]int, len(terms))
	out := make([]Term, 0, len(terms))
	for _, t := range terms {
		if t.Coeff == 0 {
			continue
		}
		if i, ok := idx[t.Var]; ok {
			out[i].Coeff += t.Coeff
		} else {
			idx[t.Var] = len(out)
			out = append(out, t)
		}
	}
	// Drop entries that cancelled to zero.
	kept := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// LinearizeProduct adds variable y = bin * cont, where bin is a binary
// variable and cont is a continuous variable with 0 <= cont <= bigM,
// using the standard four-constraint big-M linearization. It returns the
// ID of y.
func (m *Model) LinearizeProduct(name string, bin, cont VarID, bigM float64) VarID {
	y := m.AddVar(name, 0, bigM, 0)
	m.MustConstrain(name+"_ub1", []Term{{y, 1}, {bin, -bigM}}, LE, 0)
	m.MustConstrain(name+"_ub2", []Term{{y, 1}, {cont, -1}}, LE, 0)
	m.MustConstrain(name+"_lb", []Term{{y, 1}, {cont, -1}, {bin, -bigM}}, GE, -bigM)
	return y
}

// Status reports the outcome of a solve.
type Status int

// Solve statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution holds the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	Values    []float64 // indexed by VarID

	// Stats holds the solver work counters accumulated over the solve
	// (for a MIP: summed across all branch-and-bound nodes).
	Stats Stats
	// Basis is the optimal simplex basis, usable to warm-start a later
	// solve of a structurally identical model. An infeasible LP carries
	// the basis phase 1 ended on instead. Nil otherwise, and for an
	// infeasible model presolve or branch-and-bound decided.
	Basis *Basis
}

// Value returns the value of v in the solution.
func (s *Solution) Value(v VarID) float64 { return s.Values[v] }
