package lp

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// maxNodes bounds the branch-and-bound tree. The reproduction's ILPs
// carry at most a few dozen binaries; trees beyond a few thousand nodes
// indicate a hopeless big-M relaxation, where the incumbent (if any) is
// already as good as exhaustive search gets within reasonable time.
const maxNodes = 1500

// override tightens one variable's bounds relative to the parent node.
type override struct {
	v      VarID
	lb, ub float64
}

// bnode is one open branch-and-bound node.
type bnode struct {
	seq       int     // creation order; ties in bound break toward older
	bound     float64 // parent relaxation objective (valid dual bound)
	overrides []override
	seed      *Basis // parent's optimal basis
}

// Solve solves the model. Pure LPs, and models whose integer variables
// are all pinned at integers, go straight to the simplex; other models
// with integer variables are solved exactly by warm-started LP-based
// branch-and-bound with best-objective pruning. A non-nil warm basis
// from a prior solve seeds the root relaxation (and, transitively, the
// whole tree); an incompatible basis is ignored.
//
// Branch-and-bound is a sequential best-first search on the caller's
// goroutine: the open node with the best dual bound is solved next,
// creation order breaking ties, and the search stops after maxNodes
// nodes. Every bound is a count, so the result, including its Stats,
// depends on the model alone.
func (m *Model) Solve(ctx context.Context, warm *Basis) (*Solution, error) {
	p, err := m.compile()
	if err != nil {
		return nil, err
	}
	if len(p.intVars) == 0 {
		// The solver never writes its bounds, so it reads the compiled ones.
		res, lerr := solveLP(ctx, p, p.lb, p.ub, warm)
		if lerr == errCanceled {
			return nil, ctx.Err()
		}
		return res.toSolution(), lerr
	}

	better := func(a, b float64) bool { return a < b-1e-9 } // is a better than b?

	var inc *lpResult
	var total Stats
	// One bounds pair serves every node: the search is sequential and a
	// solve keeps no reference to its bounds.
	lb, ub := make([]float64, p.n), make([]float64, p.n)
	frontier := []*bnode{{seq: 0, seed: warm}}
	seq := 1

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if total.Nodes >= maxNodes {
			if inc != nil {
				// Best found so far; callers treat as heuristic.
				return finishIncumbent(inc, total), nil
			}
			return &Solution{Status: IterLimit, Stats: total},
				fmt.Errorf("lp: branch-and-bound limit (%d nodes)", total.Nodes)
		}

		// Best-node selection: best dual bound, creation order breaking
		// ties. The root, which has no bound, is alone in the frontier.
		sort.Slice(frontier, func(a, b int) bool {
			na, nb := frontier[a], frontier[b]
			if na.bound != nb.bound {
				return better(na.bound, nb.bound)
			}
			return na.seq < nb.seq
		})
		nd := frontier[0]
		frontier = frontier[1:]
		total.Nodes++
		if inc != nil && !better(nd.bound, inc.obj) {
			continue // the parent's bound cannot beat the incumbent
		}
		r, err := solveNode(ctx, p, nd, lb, ub)
		if r != nil {
			total.Add(r.stats)
		}
		if err != nil {
			if err == errCanceled {
				return nil, ctx.Err()
			}
			if r != nil && r.status == IterLimit {
				// A node whose relaxation cannot be finished within
				// the iteration budget is pruned heuristically.
				continue
			}
			return nil, err
		}
		if r == nil {
			continue // bound overrides crossed: empty domain
		}
		switch r.status {
		case Infeasible:
			continue
		case Unbounded:
			return &Solution{Status: Unbounded, Stats: total}, nil
		}
		if inc != nil && !better(r.obj, inc.obj) {
			continue // bound: relaxation cannot beat the incumbent
		}

		// Find the most fractional integer variable.
		branchVar := VarID(-1)
		worstFrac := intTol
		for _, v := range p.intVars {
			val := r.vals[v]
			frac := math.Abs(val - math.Round(val))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = v
			}
		}
		if branchVar == -1 {
			// Integral: snap and accept as incumbent.
			for _, v := range p.intVars {
				r.vals[v] = math.Round(r.vals[v])
			}
			inc = r
			continue
		}

		val := r.vals[branchVar]
		fl := math.Floor(val)
		child := func(ov override) *bnode {
			return &bnode{
				bound:     r.obj,
				overrides: append(append([]override(nil), nd.overrides...), ov),
				seed:      r.basis,
			}
		}
		down := child(override{branchVar, math.Inf(-1), fl})
		up := child(override{branchVar, fl + 1, math.Inf(1)})
		// The side nearer the fractional value gets the older seq,
		// so equal-bound ties explore it first.
		if val-fl < 0.5 {
			down.seq, up.seq = seq, seq+1
		} else {
			up.seq, down.seq = seq, seq+1
		}
		seq += 2
		frontier = append(frontier, down, up)
	}

	if inc != nil {
		return finishIncumbent(inc, total), nil
	}
	return &Solution{Status: Infeasible, Stats: total}, nil
}

// solveNode solves one node's relaxation under its bound overrides,
// written into lb and ub. It returns a nil result and no error when the
// overrides leave a variable an empty domain.
func solveNode(ctx context.Context, p *problem, nd *bnode, lb, ub []float64) (*lpResult, error) {
	copy(lb, p.lb)
	copy(ub, p.ub)
	for _, ov := range nd.overrides {
		if ov.lb > lb[ov.v] {
			lb[ov.v] = ov.lb
		}
		if ov.ub < ub[ov.v] {
			ub[ov.v] = ov.ub
		}
		if lb[ov.v] > ub[ov.v]+eps {
			return nil, nil
		}
	}
	return solveLP(ctx, p, lb, ub, nd.seed)
}

// finishIncumbent converts the winning node relaxation into the public
// Solution carrying the tree-wide stats.
func finishIncumbent(r *lpResult, total Stats) *Solution {
	return &Solution{
		Status:    Optimal,
		Objective: r.obj,
		Values:    r.vals,
		Stats:     total,
		Basis:     r.basis,
	}
}
