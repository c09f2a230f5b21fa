package core

import (
	"context"
	"fmt"
	"math"

	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
)

// The paper fixes these model parameters; they are constants rather
// than Options because nothing varies them. The latch duty cycle is
// netlist.LatchDuty, shared with the simulators.
const (
	// tStableFrac is the minimum gap between consecutive waves at a node,
	// as a fraction of T (wave non-interference, paper eq. 17).
	tStableFrac = 0.1
	// alpha, beta and gamma weight the objective (paper eq. 22).
	alpha = 100
	beta  = 10
	gamma = 10
)

// Options configures the VirtualSync optimizer.
type Options struct {
	// SelectFrac selects critical paths within this fraction of the
	// largest path delay (paper: 0.95).
	SelectFrac float64
	// Phases are the allowed clock phase shifts as fractions of T
	// (paper: 0, 1/4, 1/2, 3/4).
	Phases []float64
	// Ru and Rl are the guard-band factors for process variations
	// (paper: 1.1 and 0.9).
	Ru, Rl float64
	// UseLatches enables latch delay units in legalization.
	UseLatches bool
	// BufferReplace enables the buffer-replacement pass (paper 5.4).
	BufferReplace bool
}

// DefaultOptions returns the paper's experimental settings.
func DefaultOptions() Options {
	return Options{
		SelectFrac:    0.95,
		Phases:        []float64{0, 0.25, 0.5, 0.75},
		Ru:            1.1,
		Rl:            0.9,
		UseLatches:    true,
		BufferReplace: true,
	}
}

// Validate checks option consistency: selection fraction in range, guard
// bands ordered around 1, and phases in range.
func (o Options) Validate() error {
	if o.SelectFrac <= 0 || o.SelectFrac > 1 {
		return fmt.Errorf("core: SelectFrac %g out of (0,1]", o.SelectFrac)
	}
	if o.Ru < 1 || o.Rl > 1 || o.Rl <= 0 {
		return fmt.Errorf("core: guard bands ru=%g rl=%g must satisfy rl in (0,1] and ru >= 1", o.Ru, o.Rl)
	}
	if len(o.Phases) == 0 {
		return fmt.Errorf("core: at least one clock phase is required")
	}
	for _, p := range o.Phases {
		if p < 0 || p >= 1 {
			return fmt.Errorf("core: phase %g out of [0,1)", p)
		}
	}
	return nil
}

// EdgeMode selects the model applied to a region edge.
type EdgeMode int

// Edge modelling modes, corresponding to the flow's phases.
const (
	// ModeEmulate uses the sequential-delay emulation of paper eq. 18-21:
	// free paddings Delta (slow) and Delta' (fast).
	ModeEmulate EdgeMode = iota
	// ModeBinary adds the binary presence variable and clock-to-q charge
	// of paper eq. 25-26.
	ModeBinary
	// ModeExact applies the complete delay-unit model of paper Section
	// 4.3 with case-selection binaries over {none, FF@phi, latch@phi}.
	ModeExact
	// ModeFixed applies the exact model with the unit choice frozen to a
	// known placement (used for post-discretization repair LPs).
	ModeFixed
	// ModePlain is a bare pass-through: buffers only, no emulation
	// paddings. Used for edges known not to need sequential units, which
	// keeps the later-phase models small.
	ModePlain
)

// Placement records the delay unit realized on an edge.
type Placement struct {
	Kind      UnitKind
	PhaseFrac float64 // phase as a fraction of T
	N         int     // clock-window index from the model
}

// modelSpec parameterizes one solver invocation.
type modelSpec struct {
	T     float64
	opts  Options
	modes []EdgeMode  // per edge
	fixed []Placement // per edge; consulted for ModeFixed
	// gapLB forces Delta'-Delta >= gapLB when a ModeBinary unit is
	// present (the iterative lower bound of paper Section 5.2).
	gapLB float64
	// gateDelay, when non-nil, freezes each gate's delay (discretized).
	gateDelay []float64
	// freezeXi, when non-nil, freezes each edge's buffer delay; NaN
	// entries stay variable (used by iterative chain rounding). A frozen
	// delay is substituted as a constant and its column dropped.
	freezeXi []float64
	// quantMargin tightens every late-side constraint (setup, window
	// upper bounds, non-interference) to reserve headroom for buffer-
	// chain quantization, which can only add delay. Used by the
	// post-discretization repair LPs.
	quantMargin float64
	// nSlack lets ModeFixed window indices move by +-nSlack around the
	// frozen placement's N (used when re-targeting a nearby period).
	nSlack int
}

// modelVars exposes the variables of a built model for solution decoding.
type modelVars struct {
	m *lp.Model

	s, sE []lp.VarID // per gate: late/early arrival at output
	d     []lp.VarID // per gate: delay variable, or -1 when constant
	dAff  []affine   // per gate: delay as an expression (var or constant)

	xi      []lp.VarID  // per edge: inserted buffer delay
	dl, dlE []lp.VarID  // per edge: emulation Delta / Delta'
	x       []lp.VarID  // per edge: binary unit presence (ModeBinary)
	y, yE   []lp.VarID  // per edge: x*Delta, x*Delta' products
	nv      []lp.VarID  // per edge: window index N (exact/fixed)
	te, teE []lp.VarID  // per edge: post-unit late/early arrival (exact/fixed)
	w, wE   []lp.VarID  // per edge: pre-unit late/early arrival (exact/fixed)
	cases   [][]caseVar // per edge: unit case binaries (exact)

	spec *modelSpec
	reg  *Region
}

type caseVar struct {
	kind  UnitKind
	phase float64 // fraction of T
	v     lp.VarID
}

// affine is a small linear-expression helper.
type affine struct {
	terms []lp.Term
	c     float64
}

func varAff(v lp.VarID, coeff float64) affine {
	return affine{terms: []lp.Term{{Var: v, Coeff: coeff}}}
}

func constAff(c float64) affine { return affine{c: c} }

func (a affine) plus(b affine) affine {
	return affine{terms: append(append([]lp.Term(nil), a.terms...), b.terms...), c: a.c + b.c}
}

func (a affine) plusConst(c float64) affine {
	return affine{terms: a.terms, c: a.c + c}
}

func (a affine) scaled(f float64) affine {
	out := affine{c: a.c * f}
	for _, t := range a.terms {
		out.terms = append(out.terms, lp.Term{Var: t.Var, Coeff: t.Coeff * f})
	}
	return out
}

// constrain adds "a rel b" to the model.
func constrain(m *lp.Model, name string, a affine, rel lp.Rel, b affine) {
	terms := append(append([]lp.Term(nil), a.terms...), negTerms(b.terms)...)
	m.MustConstrain(name, terms, rel, b.c-a.c)
}

func negTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	for i, t := range ts {
		out[i] = lp.Term{Var: t.Var, Coeff: -t.Coeff}
	}
	return out
}

// maxLambda returns the largest anchor count over the region's edges.
func (r *Region) maxLambda() int {
	max := 0
	for _, e := range r.Edges {
		if e.Lambda > max {
			max = e.Lambda
		}
	}
	return max
}

// sourceTimes returns the late/early launch times of source si under the
// model's guard bands. Fixed combinational sources scale their classic
// baseline arrivals (every term of a classic arrival is a delay, so
// uniform scaling matches the guarded model exactly).
func (r *Region) sourceTimes(si int, opts Options) (late, early float64) {
	src := r.Sources[si]
	switch {
	case src.Fixed:
		return src.LateArr * opts.Ru, src.EarlyArr * opts.Rl
	case src.IsFF:
		return r.Lib.FF.Tcq * opts.Ru, r.Lib.FF.Tcq * opts.Rl
	}
	return 0, 0
}

// sinkTimings returns (tsu, th) for sink si; primary outputs use zero.
func (r *Region) sinkTimings(si int) (tsu, th float64) {
	if r.Sinks[si].IsFF {
		return r.Lib.FF.Tsu, r.Lib.FF.Th
	}
	return 0, 0
}

// buildModel assembles the LP/ILP for the given spec.
func (r *Region) buildModel(spec *modelSpec) (*modelVars, error) {
	opts := spec.opts
	T := spec.T
	L := float64(r.maxLambda())
	bigM := (2*L + 12) * T
	nb := int(L) + 5
	tstable := tStableFrac * T

	m := lp.NewModel("virtualsync")
	mv := &modelVars{m: m, spec: spec, reg: r}

	nG, nE := len(r.Gates), len(r.Edges)
	mv.s = make([]lp.VarID, nG)
	mv.sE = make([]lp.VarID, nG)
	mv.d = make([]lp.VarID, nG)
	mv.dAff = make([]affine, nG)
	inf := lp.Inf
	for gi := range r.Gates {
		mv.s[gi] = m.AddVar(fmt.Sprintf("s_%d", gi), -inf, inf, 0)
		mv.sE[gi] = m.AddVar(fmt.Sprintf("sE_%d", gi), -inf, inf, 0)
		switch {
		case spec.gateDelay != nil:
			mv.d[gi] = -1
			mv.dAff[gi] = constAff(spec.gateDelay[gi])
		default:
			dmin, dmax, err := r.GateDelayRange(gi)
			if err != nil {
				return nil, err
			}
			if dmax-dmin < 1e-12 {
				// Single-option cell: substitute the constant.
				mv.d[gi] = -1
				mv.dAff[gi] = constAff(dmin)
			} else {
				mv.d[gi] = m.AddVar(fmt.Sprintf("d_%d", gi), dmin, dmax, -gamma)
				mv.dAff[gi] = varAff(mv.d[gi], 1)
			}
		}
		// Early never after late; non-interference between waves.
		constrain(m, "order", varAff(mv.sE[gi], 1), lp.LE, varAff(mv.s[gi], 1))
		constrain(m, "wave_ni", varAff(mv.s[gi], 1), lp.LE,
			varAff(mv.sE[gi], 1).plusConst(T-tstable-spec.quantMargin))
	}

	mv.xi = make([]lp.VarID, nE)
	mv.dl = make([]lp.VarID, nE)
	mv.dlE = make([]lp.VarID, nE)
	mv.x = make([]lp.VarID, nE)
	mv.y = make([]lp.VarID, nE)
	mv.yE = make([]lp.VarID, nE)
	mv.nv = make([]lp.VarID, nE)
	mv.te = make([]lp.VarID, nE)
	mv.teE = make([]lp.VarID, nE)
	mv.w = make([]lp.VarID, nE)
	mv.wE = make([]lp.VarID, nE)
	mv.cases = make([][]caseVar, nE)

	ffCost := beta * unitCostEquivalent(r, UnitFF)
	latchCost := beta * unitCostEquivalent(r, UnitLatch)

	for ei, e := range r.Edges {
		// Upstream late/early arrival expressions.
		var upLate, upEarly affine
		switch e.From.Kind {
		case RefGate:
			upLate = varAff(mv.s[e.From.Idx], 1)
			upEarly = varAff(mv.sE[e.From.Idx], 1)
		case RefSource:
			l, early := r.sourceTimes(e.From.Idx, opts)
			upLate = constAff(l)
			upEarly = constAff(early)
		default:
			return nil, fmt.Errorf("core: edge %d starts at a sink", ei)
		}
		shift := -float64(e.Lambda) * T

		var xiLate, xiEarly affine
		if spec.freezeXi != nil && !math.IsNaN(spec.freezeXi[ei]) {
			mv.xi[ei] = -1
			xiLate = constAff(spec.freezeXi[ei] * opts.Ru)
			xiEarly = constAff(spec.freezeXi[ei] * opts.Rl)
		} else {
			mv.xi[ei] = m.AddVar(fmt.Sprintf("xi_%d", ei), 0, inf, beta)
			xiLate = varAff(mv.xi[ei], opts.Ru)
			xiEarly = varAff(mv.xi[ei], opts.Rl)
		}

		// inLate/inEarly: arrival after anchor shift and inserted buffers,
		// before any sequential unit on the edge.
		inLate := upLate.plus(xiLate).plusConst(shift)
		inEarly := upEarly.plus(xiEarly).plusConst(shift)

		// outLate/outEarly: arrival presented to the edge's consumer.
		var outLate, outEarly affine

		mode := spec.modes[ei]
		switch mode {
		case ModePlain:
			outLate = inLate
			outEarly = inEarly

		case ModeEmulate:
			mv.dl[ei] = m.AddVar(fmt.Sprintf("dl_%d", ei), 0, inf, -alpha)
			mv.dlE[ei] = m.AddVar(fmt.Sprintf("dlE_%d", ei), 0, inf, alpha+beta)
			// (20): the fast signal is padded at least as much.
			constrain(m, "gap", varAff(mv.dl[ei], 1), lp.LE, varAff(mv.dlE[ei], 1))
			// (21): padding must not reorder the signals.
			constrain(m, "noswap",
				upEarly.plus(varAff(mv.dlE[ei], 1)), lp.LE,
				upLate.plus(varAff(mv.dl[ei], 1)))
			outLate = inLate.plus(varAff(mv.dl[ei], 1))
			outEarly = inEarly.plus(varAff(mv.dlE[ei], 1))

		case ModeBinary:
			mv.dl[ei] = m.AddVar(fmt.Sprintf("dl_%d", ei), 0, (L+2)*T, 0)
			mv.dlE[ei] = m.AddVar(fmt.Sprintf("dlE_%d", ei), 0, (L+2)*T, 0)
			constrain(m, "gap", varAff(mv.dl[ei], 1), lp.LE, varAff(mv.dlE[ei], 1))
			constrain(m, "noswap",
				upEarly.plus(varAff(mv.dlE[ei], 1)), lp.LE,
				upLate.plus(varAff(mv.dl[ei], 1)))
			mv.x[ei] = m.AddBinVar(fmt.Sprintf("x_%d", ei), ffCost)
			mv.y[ei] = m.LinearizeProduct(fmt.Sprintf("y_%d", ei), mv.x[ei], mv.dl[ei], (L+2)*T)
			mv.yE[ei] = m.LinearizeProduct(fmt.Sprintf("yE_%d", ei), mv.x[ei], mv.dlE[ei], (L+2)*T)
			// The padding gap exists only with a unit present, and must be
			// significant (iterative lower bound, paper Section 5.2).
			constrain(m, "gapx",
				varAff(mv.dlE[ei], 1).plus(varAff(mv.dl[ei], -1)), lp.GE,
				varAff(mv.x[ei], spec.gapLB))
			constrain(m, "gaponlyx",
				varAff(mv.dlE[ei], 1).plus(varAff(mv.dl[ei], -1)), lp.LE,
				varAff(mv.x[ei], (L+2)*T))
			tcq := r.Lib.FF.Tcq
			outLate = inLate.plus(varAff(mv.y[ei], 1)).plus(varAff(mv.x[ei], tcq*opts.Ru))
			outEarly = inEarly.plus(varAff(mv.yE[ei], 1)).plus(varAff(mv.x[ei], tcq*opts.Rl))

		case ModeExact, ModeFixed:
			if mode == ModeFixed && spec.fixed[ei].Kind == UnitNone {
				// No unit on this edge: pass straight through without the
				// exact-model apparatus.
				mv.w[ei], mv.wE[ei], mv.te[ei], mv.teE[ei], mv.nv[ei] = -1, -1, -1, -1, -1
				outLate = inLate
				outEarly = inEarly
				break
			}
			mv.w[ei] = m.AddVar(fmt.Sprintf("w_%d", ei), -inf, inf, 0)
			mv.wE[ei] = m.AddVar(fmt.Sprintf("wE_%d", ei), -inf, inf, 0)
			constrain(m, "wdef", varAff(mv.w[ei], 1), lp.EQ, inLate)
			constrain(m, "wEdef", varAff(mv.wE[ei], 1), lp.EQ, inEarly)
			constrain(m, "worder", varAff(mv.wE[ei], 1), lp.LE, varAff(mv.w[ei], 1))
			constrain(m, "wni", varAff(mv.w[ei], 1), lp.LE,
				varAff(mv.wE[ei], 1).plusConst(T-tstable-spec.quantMargin))
			mv.te[ei] = m.AddVar(fmt.Sprintf("te_%d", ei), -inf, inf, 0)
			mv.teE[ei] = m.AddVar(fmt.Sprintf("teE_%d", ei), -inf, inf, 0)
			constrain(m, "teorder", varAff(mv.teE[ei], 1), lp.LE, varAff(mv.te[ei], 1))

			if mode == ModeFixed {
				pl := spec.fixed[ei]
				mv.nv[ei] = m.AddIntVar(fmt.Sprintf("N_%d", ei),
					float64(pl.N-spec.nSlack), float64(pl.N+spec.nSlack), 0)
				if err := r.addUnitCaseConstraints(mv, ei, pl.Kind, pl.PhaseFrac, lp.VarID(-1), bigM); err != nil {
					return nil, err
				}
			} else {
				mv.nv[ei] = m.AddIntVar(fmt.Sprintf("N_%d", ei), float64(-nb), float64(nb), 0)
				var cs []caseVar
				cNone := m.AddBinVar(fmt.Sprintf("c_none_%d", ei), 0)
				cs = append(cs, caseVar{UnitNone, 0, cNone})
				for _, ph := range opts.Phases {
					cf := m.AddBinVar(fmt.Sprintf("c_ff_%d_%g", ei, ph), ffCost)
					cs = append(cs, caseVar{UnitFF, ph, cf})
					if opts.UseLatches {
						cl := m.AddBinVar(fmt.Sprintf("c_latch_%d_%g", ei, ph), latchCost)
						cs = append(cs, caseVar{UnitLatch, ph, cl})
					}
				}
				sum := make([]lp.Term, len(cs))
				for i, cv := range cs {
					sum[i] = lp.Term{Var: cv.v, Coeff: 1}
				}
				m.MustConstrain(fmt.Sprintf("onecase_%d", ei), sum, lp.EQ, 1)
				mv.cases[ei] = cs
				for _, cv := range cs {
					if err := r.addUnitCaseConstraints(mv, ei, cv.kind, cv.phase, cv.v, bigM); err != nil {
						return nil, err
					}
				}
			}
			outLate = varAff(mv.te[ei], 1)
			outEarly = varAff(mv.teE[ei], 1)

		default:
			return nil, fmt.Errorf("core: unknown edge mode %d", mode)
		}

		// Deliver to the consumer.
		switch e.To.Kind {
		case RefGate:
			gi := e.To.Idx
			constrain(m, "arr", varAff(mv.s[gi], 1), lp.GE,
				outLate.plus(mv.dAff[gi].scaled(opts.Ru)))
			constrain(m, "arrE", varAff(mv.sE[gi], 1), lp.LE,
				outEarly.plus(mv.dAff[gi].scaled(opts.Rl)))
		case RefSink:
			tsu, th := r.sinkTimings(e.To.Idx)
			// Boundary constraints (1)-(2).
			constrain(m, "setup", outLate.plusConst(tsu*opts.Ru), lp.LE, constAff(T-spec.quantMargin))
			constrain(m, "hold", outEarly, lp.GE, constAff(th*opts.Ru))
			// Wave non-interference at the capture point.
			constrain(m, "sinkni", outLate, lp.LE, outEarly.plusConst(T-tstable-spec.quantMargin))
		default:
			return nil, fmt.Errorf("core: edge %d ends at a source", ei)
		}
	}
	return mv, nil
}

// addUnitCaseConstraints emits the constraints of one delay-unit case on
// edge ei, gated by binary sel (or unconditionally when sel is -1).
// Cases follow paper Section 4.3.2: flip-flop eq. 7-10, latch eq. 7-8,
// 11-12, 14-15.
func (r *Region) addUnitCaseConstraints(mv *modelVars, ei int, kind UnitKind, phaseFrac float64, sel lp.VarID, bigM float64) error {
	m := mv.m
	spec := mv.spec
	opts := spec.opts
	T := spec.T
	phi := phaseFrac * T
	w, wE := varAff(mv.w[ei], 1), varAff(mv.wE[ei], 1)
	te, teE := varAff(mv.te[ei], 1), varAff(mv.teE[ei], 1)
	nT := varAff(mv.nv[ei], T) // N*T

	// gate relaxes a constraint unless the case is selected.
	gate := func(name string, a affine, rel lp.Rel, b affine) {
		if sel >= 0 {
			switch rel {
			case lp.LE:
				// a <= b + M(1-sel): slack by M when sel=0.
				b = b.plus(varAff(sel, -bigM)).plusConst(bigM)
			case lp.GE:
				// a >= b - M(1-sel).
				b = b.plus(varAff(sel, bigM)).plusConst(-bigM)
			default:
				panic("core: gated equality constraint")
			}
		}
		constrain(m, name, a, rel, b)
	}

	ff := r.Lib.FF
	lt := r.Lib.Latch
	switch kind {
	case UnitNone:
		gate("u_none_l", te, lp.GE, w)
		gate("u_none_e", teE, lp.LE, wE)
	case UnitFF:
		// (7)-(8): both signals inside the legal window of window N.
		gate("u_ff_wl_lo", w, lp.GE, nT.plusConst(phi+ff.Th*opts.Ru))
		gate("u_ff_we_lo", wE, lp.GE, nT.plusConst(phi+ff.Th*opts.Ru))
		gate("u_ff_wl_hi", w, lp.LE, nT.plusConst(T+phi-ff.Tsu*opts.Ru-spec.quantMargin))
		gate("u_ff_we_hi", wE, lp.LE, nT.plusConst(T+phi-ff.Tsu*opts.Ru))
		// (9)-(10): launch from the next active edge.
		gate("u_ff_out_l", te, lp.GE, nT.plusConst(T+phi+ff.Tcq*opts.Ru))
		gate("u_ff_out_e", teE, lp.LE, nT.plusConst(T+phi+ff.Tcq*opts.Rl))
	case UnitLatch:
		// (7)-(8) bounds on the arrival window.
		gate("u_lt_wl_lo", w, lp.GE, nT.plusConst(phi+lt.Th*opts.Ru))
		gate("u_lt_wl_hi", w, lp.LE, nT.plusConst(T+phi-lt.Tsu*opts.Ru-spec.quantMargin))
		// (14): the fast signal arrives while non-transparent.
		gate("u_lt_we_lo", wE, lp.GE, nT.plusConst(phi+lt.Th*opts.Ru))
		gate("u_lt_we_hi", wE, lp.LE, nT.plusConst(phi+netlist.LatchDuty*T-spec.quantMargin))
		// (11)-(12): latest departure.
		gate("u_lt_out_l1", te, lp.GE, nT.plusConst(phi+netlist.LatchDuty*T+lt.Tcq*opts.Ru))
		gate("u_lt_out_l2", te, lp.GE, w.plusConst(lt.Tdq*opts.Ru))
		// (15): earliest departure (relaxed form).
		gate("u_lt_out_e", teE, lp.LE, nT.plusConst(phi+netlist.LatchDuty*T+lt.Tcq*opts.Rl))
	default:
		return fmt.Errorf("core: unit kind %v has no case constraints", kind)
	}
	return nil
}

// unitCostEquivalent expresses a sequential unit's area in "buffer delay"
// units so the objective trades units against buffer chains consistently:
// cost = area(unit)/area(buffer) * delay(buffer).
func unitCostEquivalent(r *Region, kind UnitKind) float64 {
	ba := r.Lib.BufferArea()
	bd := r.Lib.BufferDelay()
	if ba <= 0 || bd <= 0 {
		return 0
	}
	return r.unitArea(kind) / ba * bd
}

// unitArea is the cell area of one delay unit of the given kind (0 for
// none).
func (r *Region) unitArea(kind UnitKind) float64 {
	switch kind {
	case UnitFF:
		return r.Lib.FF.Area
	case UnitLatch:
		return r.Lib.Latch.Area
	}
	return 0
}

// solveSpec builds the model of spec and solves it cold (see solve),
// returning the decoded variables with the solution.
func (r *Region) solveSpec(ctx context.Context, spec *modelSpec) (*modelVars, *lp.Solution, error) {
	mv, err := r.buildModel(spec)
	if err != nil {
		return nil, nil, err
	}
	sol, err := r.solve(ctx, mv, nil)
	return mv, sol, err
}

// solve solves a built model, seeding the simplex from warm when it is
// non-nil (a structurally incompatible basis is ignored), and returns
// the solution, nil when the model is infeasible. Cancelling ctx
// interrupts branch-and-bound between nodes and the simplex between
// iterations.
func (r *Region) solve(ctx context.Context, mv *modelVars, warm *lp.Basis) (*lp.Solution, error) {
	sol, err := mv.m.SolveOpts(ctx, lp.SolveOptions{Warm: warm})
	r.addSolverStats(sol)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Iteration/node limits without any incumbent: treat the target
		// as infeasible rather than aborting the whole flow.
		if sol != nil && sol.Status == lp.IterLimit {
			return nil, nil
		}
		return nil, fmt.Errorf("core: solver: %v", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil
	}
	return sol, nil
}

// gateDelayOf returns the assigned delay of gate gi in a solution,
// handling constant-delay gates.
func (mv *modelVars) gateDelayOf(sol *lp.Solution, gi int) float64 {
	if mv.d[gi] < 0 {
		return mv.dAff[gi].c
	}
	return sol.Value(mv.d[gi])
}

// edgeGap returns Delta' - Delta of an emulation-mode edge in a solution.
func (mv *modelVars) edgeGap(sol *lp.Solution, ei int) float64 {
	if mv.spec.modes[ei] != ModeEmulate && mv.spec.modes[ei] != ModeBinary {
		return 0
	}
	return sol.Value(mv.dlE[ei]) - sol.Value(mv.dl[ei])
}

// chosenCase decodes the unit of an exact-mode edge, the case the solve
// selected, or of a fixed-mode edge, its frozen unit at the window index
// the solve settled on.
func (mv *modelVars) chosenCase(sol *lp.Solution, ei int) (Placement, error) {
	if mv.spec.modes[ei] == ModeFixed {
		pl := mv.spec.fixed[ei]
		if pl.Kind != UnitNone {
			pl.N = int(math.Round(sol.Value(mv.nv[ei])))
		}
		return pl, nil
	}
	for _, cv := range mv.cases[ei] {
		if sol.Value(cv.v) > 0.5 {
			return Placement{
				Kind:      cv.kind,
				PhaseFrac: cv.phase,
				N:         int(math.Round(sol.Value(mv.nv[ei]))),
			}, nil
		}
	}
	return Placement{}, fmt.Errorf("core: no case selected on edge %d", ei)
}
