package core

import (
	"fmt"
	"math"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// Violation is one failed check from the wave-timing validator.
type Violation struct {
	Check  string  // which rule failed
	Edge   int     // region edge index, or -1
	Gate   int     // region gate index, or -1
	Amount float64 // how far out of bounds
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (edge %d, gate %d, by %.3f): %s", v.Check, v.Edge, v.Gate, v.Amount, v.Msg)
}

const valTol = 1e-6

// bufPad is the stagger unit (in float64s, 128 bytes) between sections
// of propagate's backing array; see the comment at the allocation site.
const bufPad = 16

// waveState holds propagated late/early arrivals for validation.
type waveState struct {
	late, early   []float64 // per gate output
	wLate, wEarly []float64 // per edge, before any unit
	oLate, oEarly []float64 // per edge, after unit (as seen by consumer)
}

// ValidateParams overrides the quantities the wave-timing validator
// checks a plan against. The zero value reproduces Validate exactly; a
// Monte Carlo caller (internal/variation) supplies sampled delays with
// unity guard bands to test one process-variation outcome, or a shifted
// period to probe the realized circuit's operating window.
type ValidateParams struct {
	// T replaces the plan's clock period when > 0.
	T float64
	// GateDelay/ChainDelay, when non-nil, replace the plan's realized
	// per-gate and per-edge delays (same indexing as the Plan fields).
	GateDelay  []float64
	ChainDelay []float64
	// Ru/Rl replace the plan's guard bands when both are > 0. Use 1/1 to
	// validate one concrete delay assignment without margins.
	Ru, Rl float64
	// FF/Latch, when non-nil, replace the library's sequential timing.
	FF, Latch *celllib.SeqTiming
	// TransparentLatches switches latch delay units from the optimizer's
	// corner-interval model to concrete-sample physics: a signal arriving
	// before the latch opens is blocked and launched at open + Tcq, one
	// arriving while the latch is transparent passes through with Tdq.
	// The interval model instead pins the early output at the open edge
	// and requires even the fast corner (Rl-scaled) to arrive before it —
	// a constraint on the delay *interval*, meaningless for one concrete
	// delay assignment. Monte Carlo sampling sets this together with
	// unity guard bands.
	TransparentLatches bool
}

// valEnv is a resolved ValidateParams: the effective quantities one
// validation pass runs with.
type valEnv struct {
	T, ru, rl   float64
	gd, cd      []float64
	ff, lt      celllib.SeqTiming
	tstable     float64
	transparent bool
}

func (p *Plan) env(params ValidateParams) valEnv {
	e := valEnv{
		T: p.T, ru: p.Opts.Ru, rl: p.Opts.Rl,
		gd: p.GateDelay, cd: p.ChainDelay,
		ff: p.R.Lib.FF, lt: p.R.Lib.Latch,
	}
	if params.T > 0 {
		e.T = params.T
	}
	if params.GateDelay != nil {
		e.gd = params.GateDelay
	}
	if params.ChainDelay != nil {
		e.cd = params.ChainDelay
	}
	if params.Ru > 0 && params.Rl > 0 {
		e.ru, e.rl = params.Ru, params.Rl
	}
	if params.FF != nil {
		e.ff = *params.FF
	}
	if params.Latch != nil {
		e.lt = *params.Latch
	}
	e.transparent = params.TransparentLatches
	e.tstable = tStableFrac * e.T
	return e
}

// Validate checks a realized plan against the VirtualSync timing rules
// using fixed delays (p.GateDelay, p.ChainDelay) and the model's ru/rl
// guard bands: boundary setup/hold (paper eq. 1-2), delay-unit windows
// (eq. 7-8, 14), wave non-interference (eq. 17) and signal ordering. It
// is independent of the LP solver and is the final gate on every
// optimizer output.
func (p *Plan) Validate() []Violation {
	return p.ValidateWith(ValidateParams{})
}

// ValidateWith is Validate with selected quantities overridden.
func (p *Plan) ValidateWith(params ValidateParams) []Violation {
	_, vs := p.validate(params)
	return vs
}

// validate is ValidateWith that also returns the propagated wave state,
// nil when propagation fails.
func (p *Plan) validate(params ValidateParams) (*waveState, []Violation) {
	env := p.env(params)
	st, vs := p.propagate(env)
	if st == nil {
		return nil, vs
	}
	return st, append(vs, p.check(st, env)...)
}

// schedule is a region's validator sweep plan. It depends only on the
// region's structure, so buildRegion builds it once and every propagate
// call reads it without modification.
type schedule struct {
	// inStart/inEdges index each gate's in-edges in ascending edge order
	// (compressed sparse rows): gate gi reads the edges
	// inEdges[inStart[gi]:inStart[gi+1]].
	inStart, inEdges []int
	// order lists the gates topologically over the λ=0 gate-to-gate
	// edges; gates on a λ=0 cycle (none in a legal region) follow in
	// index order.
	order []int
	// sinkEdges lists the edges into sinks in ascending edge order.
	sinkEdges []int
}

// newSchedule derives the sweep plan of r's current edges.
func newSchedule(r *Region) *schedule {
	nG := len(r.Gates)
	s := &schedule{inStart: make([]int, nG+1)}
	succ := make([][]int, nG)
	indeg := make([]int, nG)
	for ei, e := range r.Edges {
		switch e.To.Kind {
		case RefGate:
			s.inStart[e.To.Idx+1]++
			if e.From.Kind == RefGate && e.Lambda == 0 {
				succ[e.From.Idx] = append(succ[e.From.Idx], e.To.Idx)
				indeg[e.To.Idx]++
			}
		case RefSink:
			s.sinkEdges = append(s.sinkEdges, ei)
		}
	}
	for gi := 0; gi < nG; gi++ {
		s.inStart[gi+1] += s.inStart[gi]
	}
	s.inEdges = make([]int, s.inStart[nG])
	next := append([]int(nil), s.inStart[:nG]...)
	for ei, e := range r.Edges {
		if e.To.Kind == RefGate {
			s.inEdges[next[e.To.Idx]] = ei
			next[e.To.Idx]++
		}
	}

	s.order = make([]int, 0, nG)
	for gi, d := range indeg {
		if d == 0 {
			s.order = append(s.order, gi)
		}
	}
	for h := 0; h < len(s.order); h++ {
		for _, gj := range succ[s.order[h]] {
			if indeg[gj]--; indeg[gj] == 0 {
				s.order = append(s.order, gj)
			}
		}
	}
	for gi, d := range indeg {
		if d > 0 {
			s.order = append(s.order, gi)
		}
	}
	return s
}

// in returns gate gi's in-edges in ascending edge order.
func (s *schedule) in(gi int) []int {
	return s.inEdges[s.inStart[gi]:s.inStart[gi+1]]
}

// propagate computes arrival times to fixpoint. Sequential delay units
// with flip-flop behaviour emit constants, which breaks every legal cycle;
// a cycle without one fails to converge and is reported.
//
// Each sweep visits the gates in the region schedule's topological order
// and evaluates a gate's in-edges right before the gate itself, so
// values computed earlier in the sweep are used at once (Gauss–Seidel);
// sink edges come last. Every stored value is the same expression of the
// same upstream values as in a sweep that re-evaluates all edges from
// the previous sweep's gates, so the fixpoint is the same and only the
// number of sweeps shrinks: one to settle the λ=0 logic, plus one per
// feedback hop the arrivals still travel. The two orders can stop a few
// ulps apart when a sweep's only movement is a rounding step below the
// change test's 1e-12 (DESIGN.md §5.1). With TransparentLatches, a
// latch on a feedback ring passes early arrivals on until they drop
// below its open edge, so the ring turns that takes depend on the
// delays; one sweep here covers a whole turn, where the all-edges sweep
// covers one gate per sweep and can hit the nG+nE+8 bound first.
func (p *Plan) propagate(env valEnv) (*waveState, []Violation) {
	r := p.R
	sc := r.sched
	nG, nE := len(r.Gates), len(r.Edges)
	opts := p.Opts
	opts.Ru, opts.Rl = env.ru, env.rl
	T := env.T

	// All six working arrays come from one backing slice with a growing
	// stagger between sections. Six separate make() calls of equal size
	// can land on consecutive same-size-class slots — for regions whose
	// per-edge arrays fill the 4KiB class, that puts wLate/wEarly/oLate/
	// oEarly at identical page offsets, and the store→load pattern in the
	// edge evaluation below then pays 4K-aliasing stalls. The distinct
	// pads keep every pair of sections off a common 4KiB stride no matter
	// what nG and nE are.
	buf := make([]float64, 2*nG+4*nE+15*bufPad)
	off := 0
	take := func(n, pad int) []float64 {
		s := buf[off : off+n : off+n]
		off += n + pad
		return s
	}
	st := &waveState{
		late:   take(nG, bufPad),
		early:  take(nG, 2*bufPad),
		wLate:  take(nE, 3*bufPad),
		wEarly: take(nE, 4*bufPad),
		oLate:  take(nE, 5*bufPad),
		oEarly: take(nE, 0),
	}
	for gi := 0; gi < nG; gi++ {
		st.late[gi] = math.Inf(-1)
		st.early[gi] = math.Inf(1)
	}

	// edge evaluates edge ei from its driver's current arrivals and
	// reports whether any of its four values moved.
	edge := func(ei int) (changed bool) {
		e := &r.Edges[ei]
		var upL, upE float64
		if e.From.Kind == RefGate {
			upL, upE = st.late[e.From.Idx], st.early[e.From.Idx]
		} else {
			upL, upE = r.sourceTimes(e.From.Idx, opts)
		}
		shift := -float64(e.Lambda) * T
		wL := upL + shift + env.cd[ei]*opts.Ru
		wE := upE + shift + env.cd[ei]*opts.Rl
		var oL, oE float64
		u := p.Unit[ei]
		phi := u.PhaseFrac * T
		n := float64(u.N)
		switch u.Kind {
		case UnitNone:
			oL, oE = wL, wE
		case UnitFF:
			oL = ffOut(n, T, phi, env.ff.Tcq*opts.Ru)
			oE = ffOut(n, T, phi, env.ff.Tcq*opts.Rl)
		case UnitLatch:
			open := latchOpen(n, T, phi)
			oL = latchOut(open, wL, env.lt.Tcq*opts.Ru, env.lt.Tdq*opts.Ru)
			if env.transparent && wE > open {
				oE = wE + env.lt.Tdq*opts.Rl
			} else {
				oE = open + env.lt.Tcq*opts.Rl
			}
		}
		if wL != st.wLate[ei] || wE != st.wEarly[ei] || oL != st.oLate[ei] || oE != st.oEarly[ei] {
			// -inf/+inf churn does not count as progress.
			changed = !sameOrBothInf(wL, st.wLate[ei]) || !sameOrBothInf(wE, st.wEarly[ei]) ||
				!sameOrBothInf(oL, st.oLate[ei]) || !sameOrBothInf(oE, st.oEarly[ei])
		}
		st.wLate[ei], st.wEarly[ei] = wL, wE
		st.oLate[ei], st.oEarly[ei] = oL, oE
		return changed
	}

	maxIter := nG + nE + 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, gi := range sc.order {
			in := sc.in(gi)
			if len(in) == 0 {
				continue
			}
			lateIn := math.Inf(-1)
			earlyIn := math.Inf(1)
			for _, ei := range in {
				if edge(ei) {
					changed = true
				}
				if st.oLate[ei] > lateIn {
					lateIn = st.oLate[ei]
				}
				if st.oEarly[ei] < earlyIn {
					earlyIn = st.oEarly[ei]
				}
			}
			nl := lateIn + env.gd[gi]*opts.Ru
			ne := earlyIn + env.gd[gi]*opts.Rl
			if !sameOrBothInf(nl, st.late[gi]) || !sameOrBothInf(ne, st.early[gi]) {
				changed = true
			}
			st.late[gi], st.early[gi] = nl, ne
		}
		for _, ei := range sc.sinkEdges {
			if edge(ei) {
				changed = true
			}
		}
		if !changed {
			return st, nil
		}
	}
	return nil, []Violation{{
		Check: "convergence", Edge: -1, Gate: -1,
		Msg: "arrival times did not converge: a feedback structure lacks a flip-flop delay unit",
	}}
}

// unitWindow is the legal input window [lo, hi] of a sequential delay
// unit in window n whose clock has phase shift phi (absolute time): hold
// th after the n-th clock edge, setup tsu before the next (paper eq. 7-8,
// 14). th and tsu come scaled by the caller's guard band.
func unitWindow(n, T, phi, th, tsu float64) (lo, hi float64) {
	return n*T + phi + th, (n+1)*T + phi - tsu
}

// latchOpen is the edge at which a latch in window n turns transparent:
// it stays closed for the first LatchDuty of the period.
func latchOpen(n, T, phi float64) float64 {
	return n*T + phi + netlist.LatchDuty*T
}

// ffOut is the output time of a flip-flop unit in window n: every input
// in the window leaves at the next clock edge plus tcq (paper Fig. 2(b)).
func ffOut(n, T, phi, tcq float64) float64 {
	return (n+1)*T + phi + tcq
}

// latchOut is the latest output time of a latch that opens at open for
// an input at in: a signal that arrives while the latch is closed waits
// for the opening edge plus tcq, one that arrives while it is transparent
// flows through after tdq, never before the opening-edge response
// (paper Fig. 2(c)).
func latchOut(open, in, tcq, tdq float64) float64 {
	return math.Max(open+tcq, in+tdq)
}

// UnitOut is a delay unit's transfer characteristic (paper Fig. 2) under
// the validator's rules at unity guard bands, for an input arriving at
// in. A flip-flop or latch with timing seq and clock phase shift phi
// (absolute time) uses the window whose hold edge in follows, and n is
// that window's index; ok is false when in falls in the setup/hold fence
// between two windows. UnitNone passes in through, as an edge without a
// unit does.
func UnitOut(kind UnitKind, seq celllib.SeqTiming, T, phi, in float64) (out float64, n int, ok bool) {
	if kind == UnitNone {
		return in, 0, true
	}
	nf := math.Floor((in - phi - seq.Th) / T)
	lo, hi := unitWindow(nf, T, phi, seq.Th, seq.Tsu)
	if in < lo-valTol || in > hi+valTol {
		return 0, int(nf), false
	}
	if kind == UnitLatch {
		return latchOut(latchOpen(nf, T, phi), in, seq.Tcq, seq.Tdq), int(nf), true
	}
	return ffOut(nf, T, phi, seq.Tcq), int(nf), true
}

func sameOrBothInf(a, b float64) bool {
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) < 1e-12
}

// check audits every constraint against the propagated arrivals.
func (p *Plan) check(st *waveState, env valEnv) []Violation {
	r := p.R
	opts := p.Opts
	opts.Ru, opts.Rl = env.ru, env.rl
	T := env.T
	tstable := env.tstable
	var vs []Violation
	add := func(check string, edge, gate int, amount float64, format string, args ...interface{}) {
		vs = append(vs, Violation{check, edge, gate, amount, fmt.Sprintf(format, args...)})
	}

	for gi := range r.Gates {
		l, e := st.late[gi], st.early[gi]
		if math.IsInf(l, -1) || math.IsInf(e, 1) {
			add("reachability", -1, gi, 0, "gate %q has undetermined arrival", r.Work.Node(r.Gates[gi]).Name)
			continue
		}
		if e > l+valTol {
			add("ordering", -1, gi, e-l, "early arrival after late arrival")
		}
		if l-e > T-tstable+valTol {
			add("non-interference", -1, gi, l-e-(T-tstable), "wave spread exceeds T - tstable")
		}
	}

	for ei, e := range r.Edges {
		wL, wE := st.wLate[ei], st.wEarly[ei]
		if math.IsInf(wL, -1) || math.IsInf(wE, 1) {
			add("reachability", ei, -1, 0, "edge has undetermined arrival")
			continue
		}
		u := p.Unit[ei]
		phi := u.PhaseFrac * T
		n := float64(u.N)
		switch u.Kind {
		case UnitFF:
			lo, hi := unitWindow(n, T, phi, env.ff.Th*opts.Ru, env.ff.Tsu*opts.Ru)
			if wE < lo-valTol {
				add("ff-window-lo", ei, -1, lo-wE, "early arrival %g before window start %g", wE, lo)
			}
			if wL > hi+valTol {
				add("ff-window-hi", ei, -1, wL-hi, "late arrival %g after window end %g", wL, hi)
			}
		case UnitLatch:
			lo, hi := unitWindow(n, T, phi, env.lt.Th*opts.Ru, env.lt.Tsu*opts.Ru)
			open := latchOpen(n, T, phi)
			if wE < lo-valTol {
				add("latch-window-lo", ei, -1, lo-wE, "early arrival %g before window start %g", wE, lo)
			}
			if wL > hi+valTol {
				add("latch-window-hi", ei, -1, wL-hi, "late arrival %g after window end %g", wL, hi)
			}
			if !env.transparent && wE > open+valTol {
				add("latch-transparent-early", ei, -1, wE-open,
					"fast signal arrives at %g after the latch opens at %g", wE, open)
			}
		}
		if wL-wE > T-tstable+valTol {
			add("non-interference", ei, -1, wL-wE-(T-tstable), "wave spread at unit input")
		}

		if e.To.Kind == RefSink {
			tsu, th := 0.0, 0.0
			if r.Sinks[e.To.Idx].IsFF {
				tsu, th = env.ff.Tsu, env.ff.Th
			}
			oL, oE := st.oLate[ei], st.oEarly[ei]
			if oL+tsu*opts.Ru > T+valTol {
				add("boundary-setup", ei, -1, oL+tsu*opts.Ru-T,
					"sink %q arrival %g + tsu > T=%g", r.Work.Node(r.Sinks[e.To.Idx].Node).Name, oL, T)
			}
			if oE < th*opts.Ru-valTol {
				add("boundary-hold", ei, -1, th*opts.Ru-oE,
					"sink %q early arrival %g < th", r.Work.Node(r.Sinks[e.To.Idx].Node).Name, oE)
			}
		}
	}
	return vs
}

// SinkArrivals exposes the validator's propagated boundary arrivals for
// experiment reporting: converted late/early arrival per sink name. ok is
// false when propagation fails.
func SinkArrivals(p *Plan) (ok bool, late, early map[string]float64) {
	st, vs := p.propagate(p.env(ValidateParams{}))
	if st == nil || len(vs) > 0 {
		return false, nil, nil
	}
	late = map[string]float64{}
	early = map[string]float64{}
	for _, ei := range p.R.sched.sinkEdges {
		name := p.R.Work.Node(p.R.Sinks[p.R.Edges[ei].To.Idx].Node).Name
		late[name] = st.oLate[ei]
		early[name] = st.oEarly[ei]
	}
	return true, late, early
}
