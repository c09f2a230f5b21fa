package lp

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Bounded-variable revised simplex.
//
// The solver works on the compiled sparse form (see sparse.go): equality
// rows A x + s = b with every column carrying its own [lb, ub] interval.
// Nonbasic columns rest at a finite bound (or at zero when free); the m
// basic columns take whatever values close the equations. The basis
// inverse lives behind the basisKernel interface (kernel.go), filled by
// the sparse LU kernel (lu.go): a Markowitz-ordered factorization with
// product-form eta updates and periodic refactorization. All pricing and
// FTRAN work runs over the sparse original columns — never an O(m·n)
// dense tableau sweep, and no artificial or mirrored columns are ever
// created.
//
// Phase 1 minimizes the total bound violation of the basic variables
// (the composite method): each basic row contributes sigma_i ∈ {+1, 0, −1}
// depending on which bound it violates, the pricing vector is
// y = sigmaᵀ B⁻¹, and the ratio test lets a basic variable *block at the
// bound it currently violates*, so infeasibilities are worked off
// monotonically. Phase 2 is the ordinary bounded-variable primal simplex
// with Dantzig pricing, plus a Bland fallback for anti-cycling; an
// entering variable whose own opposite bound gives the tightest ratio
// simply flips bounds without a basis change.

const (
	eps     = 1e-9  // reduced-cost and pivot-eligibility tolerance
	feasTol = 1e-7  // bound-violation tolerance for basic variables
	intTol  = 1e-6  // integrality tolerance in branch-and-bound
	dropTol = 1e-12 // sub-epsilon residues zeroed after row updates
	resTol  = 1e-6  // relative ‖B·xB − b̃‖∞ drift that forces a refactorization
)

// Column statuses. A nonbasic column's value is implied by its status.
const (
	atLower byte = iota // value = lb
	atUpper             // value = ub
	atFree              // free nonbasic, value = 0
	inBasis             // value read from xB
)

// Stats accumulates solver work counters across a solve (for a MIP,
// across every branch-and-bound node). They are exposed on Solution so
// benchmarks can report real pivot counts and warm-start hit rates.
type Stats struct {
	Phase1Pivots int // pivots spent restoring feasibility
	Phase2Pivots int // pivots spent optimizing
	BoundFlips   int // nonbasic bound-to-bound moves (no basis change)
	CrashPivots  int // warm-start crash pivots; always 0, as seeds are factorized directly
	Nodes        int // branch-and-bound nodes solved
	WarmStarts   int // solves seeded from a prior basis
	ColdStarts   int // solves from the all-slack basis
	Refactors    int // sparse-kernel basis refactorizations
	Repairs      int // singular basis slots repaired with slack columns
}

// Pivots returns the total simplex pivots across both phases (excluding
// warm-start crash pivots).
func (s Stats) Pivots() int { return s.Phase1Pivots + s.Phase2Pivots }

// WarmHitRate returns the fraction of solves that were seeded from a
// prior basis, in [0, 1]. Returns 0 when nothing was solved.
func (s Stats) WarmHitRate() float64 {
	total := s.WarmStarts + s.ColdStarts
	if total == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(total)
}

// Add accumulates another solve's counters into s. Callers that track
// solver work across many solves (the core driver, the service metrics)
// sum per-solve Stats with it.
func (s *Stats) Add(o Stats) {
	s.Phase1Pivots += o.Phase1Pivots
	s.Phase2Pivots += o.Phase2Pivots
	s.BoundFlips += o.BoundFlips
	s.CrashPivots += o.CrashPivots
	s.Nodes += o.Nodes
	s.WarmStarts += o.WarmStarts
	s.ColdStarts += o.ColdStarts
	s.Refactors += o.Refactors
	s.Repairs += o.Repairs
}

// Basis is a compact snapshot of an optimal simplex basis: one status
// byte per column (structurals followed by slacks). It is the unit of
// warm-starting — a later solve of a problem with the same row/column
// structure can seed from it and typically reaches optimality in a few
// pivots. It records statuses rather than any kernel state, so the seeded
// solve simply factorizes the recorded basic set. A Basis never affects
// correctness: dimension mismatches are detected and ignored, and a poor
// seed only costs extra pivots.
type Basis struct {
	m, n int
	stat []byte
}

// Compatible reports whether the basis can seed a problem with m rows
// and n total columns.
func (b *Basis) Compatible(m, n int) bool {
	return b != nil && b.m == m && b.n == n && len(b.stat) == n
}

// errCanceled marks a solve interrupted by context cancellation.
var errCanceled = fmt.Errorf("lp: canceled")

// statusRestart is an internal phase outcome: a mid-phase-2 basis repair
// (a near-singular basis column swapped for a slack) broke primal
// feasibility, so the solve must re-run phase 1. Never escapes solveLP.
const statusRestart Status = -1

// solver carries the working state of one relaxation solve.
type solver struct {
	p      *problem
	lb, ub []float64 // per-solve bounds (node overrides applied), read only

	kern  basisKernel // basis-inverse representation (sparse LU)
	lu    *luKernel   // the pooled LU kernel kern normally points at
	basis []int32     // column occupying each basic slot
	stat  []byte      // status per column
	xB    []float64   // values of basic columns, length m

	y     []float64 // pricing scratch, length m
	cB    []float64 // basic-cost scratch for btran, length m
	rhs   []float64 // nonbasic-adjusted right-hand side b̃, length m
	sigma []int8    // phase-1 violation direction per basic row, length m

	alpha []float64 // FTRAN scratch, length m

	// movable lists, ascending, the columns whose bounds leave room to
	// move; chooseEntering prices only these.
	movable []int32

	iters   int // iterations consumed across both phases
	maxIter int
	st      Stats

	ctx context.Context // nil disables cancellation checks
}

// solverPool recycles solvers, each with its LU kernel, across solves:
// newSolver resizes a pooled solver's scratch to the problem, so the
// many solves of one model reuse their buffers instead of regrowing
// them. The pool starts no goroutine; every solve runs on its caller's.
var solverPool = sync.Pool{New: func() any { return &solver{lu: &luKernel{}} }}

// newSolver returns a solver over p and the given bounds, with the
// all-slack basis installed but not yet factorized: solve factorizes it
// unless a seed replaces it. release hands the solver back to the pool.
func newSolver(ctx context.Context, p *problem, lb, ub []float64) *solver {
	s := solverPool.Get().(*solver)
	m, n := p.m, p.n
	s.p, s.lb, s.ub, s.ctx = p, lb, ub, ctx
	s.basis = resize(s.basis, m)
	s.stat = resize(s.stat, n)
	s.xB = resize(s.xB, m)
	s.y = resize(s.y, m)
	s.cB = resize(s.cB, m)
	s.rhs = resize(s.rhs, m)
	s.sigma = resize(s.sigma, m)
	s.alpha = resize(s.alpha, m)
	s.iters, s.st = 0, Stats{}
	// Generous but finite; the timing LPs need far fewer.
	s.maxIter = 20000 + 60*(m+n)
	s.lu.reset(p)
	s.kern = s.lu
	s.movable = s.movable[:0]
	for j := 0; j < n; j++ {
		// A fixed column (finite lb, ub − lb ≤ eps) can never move.
		if math.IsInf(lb[j], -1) || !(ub[j]-lb[j] <= eps) {
			s.movable = append(s.movable, int32(j))
		}
	}
	for i := range s.basis {
		s.basis[i] = int32(p.nv + i)
		s.stat[p.nv+i] = inBasis
	}
	for j := 0; j < p.nv; j++ {
		s.stat[j] = s.defaultStat(j)
	}
	return s
}

// release drops the solver's references to its problem and returns it
// to the pool. Nothing a solve returns aliases the solver's buffers.
func (s *solver) release() {
	s.p, s.lb, s.ub, s.ctx = nil, nil, nil, nil
	s.kern, s.lu.p = nil, nil
	solverPool.Put(s)
}

// defaultStat picks the resting status of a nonbasic column from its
// bounds: lower bound first, then upper, then free at zero.
func (s *solver) defaultStat(j int) byte {
	switch {
	case !math.IsInf(s.lb[j], -1):
		return atLower
	case !math.IsInf(s.ub[j], 1):
		return atUpper
	default:
		return atFree
	}
}

// normalizeStat validates a desired nonbasic status against the current
// bounds, falling back to a legal one (a branch may have removed the
// bound the column used to rest on).
func (s *solver) normalizeStat(desired byte, j int) byte {
	switch desired {
	case atLower:
		if !math.IsInf(s.lb[j], -1) {
			return atLower
		}
	case atUpper:
		if !math.IsInf(s.ub[j], 1) {
			return atUpper
		}
	case atFree:
		if math.IsInf(s.lb[j], -1) && math.IsInf(s.ub[j], 1) {
			return atFree
		}
	}
	return s.defaultStat(j)
}

// nbVal is the value a nonbasic column rests at.
func (s *solver) nbVal(j int) float64 {
	switch s.stat[j] {
	case atLower:
		return s.lb[j]
	case atUpper:
		return s.ub[j]
	default:
		return 0
	}
}

// recomputeXB rebuilds xB = B⁻¹ (b − A_N x_N) from scratch. Used at
// solve start and periodically to wash out incremental-update drift.
// The adjusted right-hand side is left in s.rhs for residual checks.
func (s *solver) recomputeXB() {
	p := s.p
	r := s.rhs
	copy(r, p.b)
	for j := 0; j < p.n; j++ {
		if s.stat[j] == inBasis {
			continue
		}
		v := s.nbVal(j)
		if v == 0 {
			continue
		}
		idx, val := p.colIdx[j], p.colVal[j]
		for k, row := range idx {
			r[row] -= val[k] * v
		}
	}
	s.kern.ftranVec(r, s.xB)
}

// residual returns ‖B·xB − b̃‖∞, the drift of the incrementally updated
// basic solution against the equations, using the b̃ cached by the last
// recomputeXB. It reads only the sparse basis columns, so the check is
// O(nnz(B)) — cheap enough to run at every periodic refresh.
func (s *solver) residual() float64 {
	p := s.p
	copy(s.y, s.rhs) // y is free between pricing rounds; reuse as scratch
	for q := 0; q < p.m; q++ {
		x := s.xB[q]
		if x == 0 {
			continue
		}
		idx, val := p.colIdx[s.basis[q]], p.colVal[s.basis[q]]
		for k, row := range idx {
			s.y[row] -= val[k] * x
		}
	}
	worst := 0.0
	for _, v := range s.y {
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// residualHigh reports whether the basic-solution drift exceeds the
// relative tolerance that forces a refactorization.
func (s *solver) residualHigh() bool {
	norm := 0.0
	for _, v := range s.rhs {
		if v < 0 {
			v = -v
		}
		if v > norm {
			norm = v
		}
	}
	return s.residual() > resTol*(1+norm)
}

// refactorNow rebuilds the kernel's factorization from the current basis
// and installs slack columns into any slots the kernel reported as
// (near-)singular. Returns true when at least one slot was repaired —
// the basic solution changed structurally and feasibility may be lost.
// No-op (returns false) on kernels without refactorization.
func (s *solver) refactorNow() bool {
	repairs, ok := s.kern.refactor(s.basis)
	if !ok {
		return false
	}
	s.st.Refactors++
	repaired := false
	for _, rp := range repairs {
		slot, row := int(rp[0]), int(rp[1])
		old := int(s.basis[slot])
		sl := s.p.nv + row
		if old == sl {
			continue
		}
		s.basis[slot] = int32(sl)
		s.stat[sl] = inBasis
		// The evicted column goes nonbasic at a legal resting bound.
		s.stat[old] = s.normalizeStat(atLower, old)
		s.st.Repairs++
		repaired = true
	}
	return repaired
}

// ftran computes alpha = B⁻¹ A_e for the entering column.
func (s *solver) ftran(e int) { s.kern.ftranCol(e, s.alpha) }

// infeasibility returns the total bound violation of the basic variables
// and records each row's violation direction in sigma.
func (s *solver) infeasibility(sigma []int8) float64 {
	w := 0.0
	for i := 0; i < s.p.m; i++ {
		j := s.basis[i]
		v := s.xB[i]
		if d := v - s.ub[j]; d > feasTol {
			w += d
			sigma[i] = 1
		} else if d := s.lb[j] - v; d > feasTol {
			w += d
			sigma[i] = -1
		} else {
			sigma[i] = 0
		}
	}
	return w
}

// price computes the pricing vector y for the current phase:
// phase 1: y = sigmaᵀ B⁻¹ (gradient of the infeasibility sum);
// phase 2: y = c_Bᵀ B⁻¹. Both are one BTRAN against the kernel.
func (s *solver) price(phase1 bool, sigma []int8) {
	m := s.p.m
	if phase1 {
		for i := 0; i < m; i++ {
			s.cB[i] = float64(sigma[i])
		}
	} else {
		for i := 0; i < m; i++ {
			s.cB[i] = s.p.cost[s.basis[i]]
		}
	}
	s.kern.btran(s.cB, s.y)
}

// reducedCost of column j against the current pricing vector. Phase 1
// has an implicit zero objective row, so d_j = −y·A_j; phase 2 uses
// d_j = c_j − y·A_j.
func (s *solver) reducedCost(phase1 bool, j int) float64 {
	idx, val := s.p.colIdx[j], s.p.colVal[j]
	dot := 0.0
	for k, r := range idx {
		dot += s.y[r] * val[k]
	}
	if phase1 {
		return -dot
	}
	return s.p.cost[j] - dot
}

// eligible reports whether a nonbasic column with reduced cost d may
// enter, and the direction it would move (+1 increasing, −1 decreasing).
func (s *solver) eligible(j int, d float64) (int, bool) {
	switch s.stat[j] {
	case atLower:
		if d < -eps {
			return +1, true
		}
	case atUpper:
		if d > eps {
			return -1, true
		}
	case atFree:
		if d < -eps {
			return +1, true
		}
		if d > eps {
			return -1, true
		}
	}
	return 0, false
}

// chooseEntering scans the movable nonbasic columns in ascending order:
// Dantzig rule (largest reduced-cost magnitude) normally, Bland's rule
// (first eligible index) once bland is set, which guarantees termination
// on degenerate cycles.
func (s *solver) chooseEntering(phase1, bland bool) (e, dir int) {
	e = -1
	best := 0.0
	for _, j32 := range s.movable {
		j := int(j32)
		if s.stat[j] == inBasis {
			continue
		}
		d := s.reducedCost(phase1, j)
		t, ok := s.eligible(j, d)
		if !ok {
			continue
		}
		if bland {
			return j, t
		}
		if a := math.Abs(d); a > best {
			best, e, dir = a, j, t
		}
	}
	return e, dir
}

// ratioResult describes the outcome of a ratio test.
type ratioResult struct {
	kind      byte // 'p' pivot, 'f' bound flip, 'u' unbounded
	row       int  // leaving row for a pivot
	theta     float64
	leaveStat byte // status the leaving column takes
}

// ratio runs the bounded-variable ratio test for entering column e
// moving in direction dir (alpha already holds B⁻¹A_e). In phase 1 a
// basic variable that violates a bound blocks at that violated bound
// (driving its infeasibility to zero) while feasible basics block at
// whichever bound they would cross; in phase 2 all basics are within
// bounds and block normally.
func (s *solver) ratio(phase1 bool, e, dir int, bland bool) ratioResult {
	t := float64(dir)
	// The entering column can at most travel to its own opposite bound.
	own := math.Inf(1)
	if !math.IsInf(s.lb[e], -1) && !math.IsInf(s.ub[e], 1) {
		own = s.ub[e] - s.lb[e]
	}
	leave := -1
	bestTheta := math.Inf(1)
	bestAbs := 0.0
	var leaveStat byte
	for i := 0; i < s.p.m; i++ {
		a := s.alpha[i]
		if a <= eps && a >= -eps {
			continue
		}
		delta := -t * a // rate of change of xB[i] per unit of entering
		j := s.basis[i]
		v := s.xB[i]
		var th float64
		var ls byte
		switch {
		case phase1 && v > s.ub[j]+feasTol:
			// Violating above: blocks only when moving down to ub.
			if delta >= 0 {
				continue
			}
			th = (v - s.ub[j]) / -delta
			ls = atUpper
		case phase1 && v < s.lb[j]-feasTol:
			// Violating below: blocks only when rising to lb.
			if delta <= 0 {
				continue
			}
			th = (s.lb[j] - v) / delta
			ls = atLower
		case delta > 0:
			if math.IsInf(s.ub[j], 1) {
				continue
			}
			th = (s.ub[j] - v) / delta
			ls = atUpper
		default: // delta < 0
			if math.IsInf(s.lb[j], -1) {
				continue
			}
			th = (v - s.lb[j]) / -delta
			ls = atLower
		}
		if th < 0 {
			th = 0
		}
		if bland {
			if th < bestTheta-eps ||
				(th <= bestTheta+eps && (leave < 0 || j < s.basis[leave])) {
				leave, leaveStat = i, ls
				bestTheta = math.Min(th, bestTheta)
			}
		} else if th < bestTheta-eps ||
			(th <= bestTheta+eps && math.Abs(a) > bestAbs) {
			leave, leaveStat = i, ls
			bestTheta = math.Min(th, bestTheta)
			bestAbs = math.Abs(a)
		}
	}
	if own <= bestTheta {
		if math.IsInf(own, 1) {
			return ratioResult{kind: 'u'}
		}
		return ratioResult{kind: 'f', theta: own}
	}
	if leave < 0 {
		return ratioResult{kind: 'u'}
	}
	return ratioResult{kind: 'p', row: leave, theta: bestTheta, leaveStat: leaveStat}
}

// applyStep moves the entering column by theta, updating xB
// incrementally, and returns the entering column's new value.
func (s *solver) applyStep(e, dir int, theta float64) float64 {
	if theta != 0 {
		t := float64(dir)
		for i := 0; i < s.p.m; i++ {
			a := s.alpha[i]
			if a > eps || a < -eps {
				s.xB[i] -= t * a * theta
			}
		}
	}
	return s.nbVal(e) + float64(dir)*theta
}

// iterate runs one simplex phase to completion. Returns Optimal when the
// phase goal is met (phase 1: feasible; phase 2: no eligible entering
// column), Infeasible (phase 1 only), Unbounded (phase 2 only),
// statusRestart (phase 2 only: a basis repair broke feasibility), or
// IterLimit. Context cancellation is reported via errCanceled.
func (s *solver) iterate(phase1 bool) (Status, error) {
	sigma := s.sigma
	sincePivot := 0
	for {
		if s.iters >= s.maxIter {
			return IterLimit, nil
		}
		if s.ctx != nil && s.iters%128 == 0 {
			if err := s.ctx.Err(); err != nil {
				return IterLimit, errCanceled
			}
		}
		s.iters++
		bland := s.iters > s.maxIter/2

		if phase1 {
			if w := s.infeasibility(sigma); w <= feasTol {
				return Optimal, nil
			}
		}
		s.price(phase1, sigma)
		e, dir := s.chooseEntering(phase1, bland)
		if e < 0 {
			if phase1 {
				return Infeasible, nil
			}
			return Optimal, nil
		}
		s.ftran(e)
		res := s.ratio(phase1, e, dir, bland)
		switch res.kind {
		case 'u':
			if phase1 {
				// Impossible with a violated blocking bound present;
				// report infeasible rather than loop on numerical dust.
				return Infeasible, nil
			}
			return Unbounded, nil
		case 'f':
			s.applyStep(e, dir, res.theta)
			if s.stat[e] == atLower {
				s.stat[e] = atUpper
			} else {
				s.stat[e] = atLower
			}
			s.st.BoundFlips++
		case 'p':
			v := s.applyStep(e, dir, res.theta)
			leaving := int(s.basis[res.row])
			want := s.kern.update(res.row, e, s.alpha)
			s.basis[res.row] = int32(e)
			s.stat[e] = inBasis
			s.stat[leaving] = res.leaveStat
			s.xB[res.row] = v
			if phase1 {
				s.st.Phase1Pivots++
			} else {
				s.st.Phase2Pivots++
			}
			sincePivot++
			if want {
				repaired := s.refactorNow()
				s.recomputeXB()
				sincePivot = 0
				if repaired && !phase1 {
					if w := s.infeasibility(sigma); w > feasTol {
						return statusRestart, nil
					}
				}
			} else if sincePivot >= 64 {
				s.recomputeXB()
				sincePivot = 0
				if s.residualHigh() {
					repaired := s.refactorNow()
					s.recomputeXB()
					if repaired && !phase1 {
						if w := s.infeasibility(sigma); w > feasTol {
							return statusRestart, nil
						}
					}
				}
			}
		}
	}
}

// applySeedFactor seeds the LU kernel from a prior basis by installing
// the seed's basic set directly and factorizing it — no crash pivots at
// all. Slots whose columns prove singular are repaired with slacks, and
// phase 1 fixes any feasibility the repairs cost. Returns false, with
// the solver untouched, when the seed does not match the problem shape
// or is not a full basis.
func (s *solver) applySeedFactor(seed *Basis) bool {
	p := s.p
	if !seed.Compatible(p.m, p.n) {
		return false
	}
	cnt := 0
	for j := 0; j < p.n; j++ {
		if seed.stat[j] == inBasis {
			cnt++
		}
	}
	if cnt != p.m {
		return false
	}
	slot := 0
	for j := 0; j < p.n; j++ {
		if seed.stat[j] == inBasis {
			s.basis[slot] = int32(j)
			s.stat[j] = inBasis
			slot++
		} else {
			s.stat[j] = s.normalizeStat(seed.stat[j], j)
		}
	}
	s.refactorNow()
	return true
}

// snapshotBasis captures the current statuses for later warm starts.
func (s *solver) snapshotBasis() *Basis {
	return &Basis{m: s.p.m, n: s.p.n, stat: append([]byte(nil), s.stat...)}
}

// lpResult is the outcome of one relaxation solve.
type lpResult struct {
	status Status
	obj    float64   // objective value
	vals   []float64 // structural values, length nv
	basis  *Basis
	stats  Stats
}

// solveLP solves one LP relaxation over the given working bounds,
// optionally seeded from a prior basis. A nil ctx disables cancellation.
func solveLP(ctx context.Context, p *problem, lb, ub []float64, seed *Basis) (*lpResult, error) {
	if p.infeasible() {
		// Singleton-row presolve found crossed bounds at compile time.
		return &lpResult{status: Infeasible}, nil
	}
	s := newSolver(ctx, p, lb, ub)
	res, err := s.solve(seed)
	s.release()
	return res, err
}

// solve runs both simplex phases from the solver's fresh state, seeded
// from a prior basis when one is given and compatible.
func (s *solver) solve(seed *Basis) (*lpResult, error) {
	p, lb, ub := s.p, s.lb, s.ub
	if seed != nil && s.applySeedFactor(seed) {
		s.st.WarmStarts++
	} else {
		// The all-slack basis is the identity; its factorization is
		// not counted in Stats.Refactors.
		s.kern.refactor(s.basis)
		s.st.ColdStarts++
	}
	s.recomputeXB()

	// A mid-phase-2 basis repair can cost feasibility; allow a bounded
	// number of phase-1 re-entries before giving up.
	for round := 0; ; round++ {
		st, err := s.iterate(true)
		if err != nil {
			return &lpResult{status: IterLimit, stats: s.st}, err
		}
		switch st {
		case Infeasible:
			// The basis phase 1 ended on still seeds a later solve of a
			// re-bounded model well.
			return &lpResult{status: Infeasible, stats: s.st, basis: s.snapshotBasis()}, nil
		case IterLimit:
			return &lpResult{status: IterLimit, stats: s.st},
				fmt.Errorf("lp: phase-1 iteration limit (%d)", s.maxIter)
		}

		st, err = s.iterate(false)
		if err != nil {
			return &lpResult{status: IterLimit, stats: s.st}, err
		}
		switch st {
		case statusRestart:
			if round < 4 {
				continue
			}
			return &lpResult{status: IterLimit, stats: s.st},
				fmt.Errorf("lp: basis repairs kept breaking feasibility")
		case Unbounded:
			return &lpResult{status: Unbounded, stats: s.st}, nil
		case IterLimit:
			return &lpResult{status: IterLimit, stats: s.st},
				fmt.Errorf("lp: phase-2 iteration limit (%d)", s.maxIter)
		}
		break
	}

	// Settle drift accumulated since the last periodic refresh before
	// extracting values.
	s.recomputeXB()
	vals := make([]float64, p.nv)
	for j := 0; j < p.nv; j++ {
		if s.stat[j] != inBasis {
			vals[j] = s.nbVal(j)
		}
	}
	for i, bc := range s.basis {
		if int(bc) < p.nv {
			v := s.xB[i]
			// Snap sub-tolerance overshoot onto the bound.
			if l := lb[bc]; v < l && v > l-feasTol {
				v = l
			}
			if u := ub[bc]; v > u && v < u+feasTol {
				v = u
			}
			vals[bc] = v
		}
	}
	obj := 0.0
	for j, c := range p.cost[:p.nv] {
		if c != 0 {
			obj += c * vals[j]
		}
	}
	return &lpResult{
		status: Optimal,
		obj:    obj,
		vals:   vals,
		basis:  s.snapshotBasis(),
		stats:  s.st,
	}, nil
}

func (r *lpResult) toSolution() *Solution {
	sol := &Solution{Status: r.status, Stats: r.stats, Basis: r.basis}
	if r.status == Optimal {
		sol.Objective = r.obj
		sol.Values = r.vals
	}
	return sol
}
