package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"virtualsync/internal/lp"
)

// quantMargin is the late-side headroom reserved for buffer-chain
// quantization: one fastest buffer under the late guard band.
func (p *Plan) quantMargin() float64 {
	buf := p.R.Lib.Cell("BUF")
	if buf == nil {
		return 0
	}
	return buf.MinDelay() * p.Opts.Ru
}

// realize discretizes the plan's continuous solution: gate delays snap to
// the slowest library drive not exceeding the assigned delay, a repair LP
// re-derives consistent buffer delays for the realized gates, and buffer
// chains are assembled from library drive options. The realized plan is
// validated; realize reports an error when no valid realization is found
// (the caller treats the target period as infeasible). Plan.XiReq says
// which of its entries realize leaves stale.
func (p *Plan) realize(ctx context.Context) error {
	rd, err := p.startRounding(ctx)
	if err != nil {
		return err
	}
	for iter := 0; iter <= len(p.R.Edges); iter++ {
		if done, err := rd.round(ctx); err != nil {
			return err
		} else if done {
			break
		}
	}
	if vs := p.Validate(); len(vs) > 0 {
		return fmt.Errorf("core: realization invalid: %v", vs[0])
	}
	return nil
}

// errProbeDisagrees reports a round whose rounding decisions all passed
// their feasibility probes but whose cold value solve is infeasible.
var errProbeDisagrees = errors.New("core: repair LP infeasible where its feasibility probes passed")

// roundBatch is how many of the largest open requests a chain-rounding
// round freezes before its value solve.
const roundBatch = 8

// chainRounder is realize's iterative chain rounding: a repair LP (gates
// and units frozen) derives the free buffer delays; each round freezes
// the largest requests, one edge at a time, at the first candidate
// chain (nearest first) the LP accepts, and the LP re-solves so the
// remaining free buffers compensate the rounding exactly.
//
// Its repair solves are of two kinds. Rounding decisions need only a
// feasibility verdict, so they come from its probe, on the model of the
// initial value solve, in which every ξ is a column; fits pins them by
// their bounds. Values come only from cold solves of the model with the
// frozen columns dropped: one after the gates are discretized and one
// per round once its decisions are fixed, so the requests depend on the
// model alone (DESIGN.md §6).
type chainRounder struct {
	p *Plan
	// freeze holds each edge's frozen chain delay, NaN while it is free.
	freeze []float64
	probe  *probe
}

// startRounding discretizes the gate delays downward (never slower than
// assigned, so late-arrival constraints stay safe) and runs the initial
// value solve, which gives every edge its request and the probe its
// model and first basis.
func (p *Plan) startRounding(ctx context.Context) (*chainRounder, error) {
	r := p.R
	p.GateDrive = make([]int, len(r.Gates))
	p.GateDelay = make([]float64, len(r.Gates))
	for gi, gid := range r.Gates {
		n := r.Work.Node(gid)
		drive, delay, _ := r.Lib.SlowestAtMost(n, p.GateDelayReq[gi]+1e-9)
		p.GateDrive[gi] = drive
		p.GateDelay[gi] = delay
	}
	rd := &chainRounder{p: p, freeze: make([]float64, len(r.Edges))}
	for ei := range rd.freeze {
		rd.freeze[ei] = math.NaN()
	}
	mv, sol, err := rd.solveValues(ctx)
	if err != nil {
		return nil, err
	} else if sol == nil {
		return nil, fmt.Errorf("core: repair LP infeasible after gate discretization")
	}
	rd.probe = &probe{mv: mv, warm: sol.Basis}
	return rd, nil
}

// fits reports whether the repair model is feasible under the current
// freezes: it bounds each ξ column of the probe's model to its frozen
// delay, or to [0, ∞) while the edge is free, and asks the probe.
func (rd *chainRounder) fits(ctx context.Context) (bool, error) {
	mv := rd.probe.mv
	for ei, f := range rd.freeze {
		if math.IsNaN(f) {
			mv.m.SetBounds(mv.xi[ei], 0, lp.Inf)
		} else {
			mv.m.SetBounds(mv.xi[ei], f, f)
		}
	}
	return rd.probe.feasible(ctx, rd.p.R)
}

// solveValues solves the repair model cold under the current freezes and
// stores the free edges' requests in XiReq. It returns the model and its
// solution, nil when the model is infeasible, leaving XiReq alone.
func (rd *chainRounder) solveValues(ctx context.Context) (*modelVars, *lp.Solution, error) {
	p := rd.p
	spec := frozenSpec(p.T, p.Opts, p.Unit)
	spec.gateDelay, spec.freezeXi = p.GateDelay, rd.freeze
	mv, sol, err := p.R.solveSpec(ctx, spec)
	if err != nil || sol == nil {
		return nil, nil, err
	}
	for ei, f := range rd.freeze {
		if math.IsNaN(f) {
			p.XiReq[ei] = sol.Value(mv.xi[ei])
		}
	}
	return mv, sol, nil
}

// round freezes every zero request and rounds the largest open ones (at
// most roundBatch) one edge at a time, trying the nearest rounding first
// and the other chainCandidates after it. It ends with the value solve
// of the round's decisions and reports done when no edge is left free:
// when no request was open, or when the round froze the last ones. That
// last round runs no value solve. It would write no request, and its
// freezes are the ones its last probe already found feasible.
func (rd *chainRounder) round(ctx context.Context) (done bool, err error) {
	p := rd.p
	type req struct {
		ei int
		xi float64
	}
	var open []req
	for ei, f := range rd.freeze {
		if !math.IsNaN(f) {
			continue
		}
		if p.XiReq[ei] <= valTol {
			rd.freeze[ei] = 0
			p.Chain[ei], p.ChainDelay[ei] = nil, 0
			continue
		}
		open = append(open, req{ei, p.XiReq[ei]})
	}
	if len(open) == 0 {
		return true, nil
	}
	sort.Slice(open, func(i, j int) bool { return open[i].xi > open[j].xi })
	if len(open) > roundBatch {
		open = open[:roundBatch]
	}
	for _, rq := range open {
		frozen := false
		for _, cand := range p.chainCandidates(rq.xi) {
			rd.freeze[rq.ei] = cand.delay
			if ok, err := rd.fits(ctx); err != nil {
				return false, err
			} else if ok {
				p.Chain[rq.ei], p.ChainDelay[rq.ei] = cand.chain, cand.delay
				frozen = true
				break
			}
		}
		if !frozen {
			return false, fmt.Errorf("core: buffer chain on edge %d not realizable (request %.2f)", rq.ei, rq.xi)
		}
	}
	if !slices.ContainsFunc(rd.freeze, math.IsNaN) {
		return true, nil
	}
	if _, sol, err := rd.solveValues(ctx); err != nil {
		return false, err
	} else if sol == nil {
		return false, errProbeDisagrees
	}
	return false, nil
}

// buildChain assembles a buffer chain whose delay approximates the target
// using the library's buffer drive options: weakest (slowest) buffers
// bulk up the delay, a final stronger buffer trims the remainder. The
// chain never undershoots the target by more than valTol and overshoots
// by at most the fastest buffer's delay.
func (p *Plan) buildChain(target float64) ([]int, float64) {
	if target <= valTol {
		return nil, 0
	}
	buf := p.R.Lib.Cell("BUF")
	slow := buf.Options[0].Delay
	var chain []int
	total := 0.0
	for total+slow <= target+valTol {
		chain = append(chain, 0)
		total += slow
	}
	rem := target - total
	if rem > valTol {
		// Smallest option covering the remainder.
		best := 0
		for i := len(buf.Options) - 1; i >= 0; i-- {
			if buf.Options[i].Delay >= rem-valTol {
				best = i
				break
			}
		}
		chain = append(chain, best)
		total += buf.Options[best].Delay
	}
	return chain, total
}

// chainCandidates returns a few realizable chains bracketing the target
// (nearest, round-up, and nearest-from-below), deduplicated, for the
// realize fallback to probe against the repair LP.
func (p *Plan) chainCandidates(target float64) []struct {
	chain []int
	delay float64
} {
	type cand = struct {
		chain []int
		delay float64
	}
	var out []cand
	add := func(ch []int, d float64) {
		for _, c := range out {
			if math.Abs(c.delay-d) < 1e-9 {
				return
			}
		}
		out = append(out, cand{ch, d})
	}
	near, nearD := p.buildChainNearest(target)
	add(near, nearD)
	up, upD := p.buildChain(target)
	add(up, upD)
	if nearD > target {
		below, belowD := p.buildChainNearest(target - (nearD - target) - 0.5)
		add(below, belowD)
	} else {
		above, aboveD := p.buildChainNearest(target + (target - nearD) + 0.5)
		add(above, aboveD)
	}
	return out
}

// buildChainNearest assembles the realizable buffer chain whose delay is
// closest to the target (above or below), searching bulk counts of the
// slowest buffer combined with up to two trim buffers.
func (p *Plan) buildChainNearest(target float64) ([]int, float64) {
	if target <= valTol {
		return nil, 0
	}
	buf := p.R.Lib.Cell("BUF")
	slow := buf.Options[0].Delay
	// The empty chain (delay 0) is a legitimate candidate: requests below
	// the smallest buffer may round down to nothing.
	bestChain, bestDelay, bestErr := []int(nil), 0.0, target
	base := int(target / slow)
	for k := base - 1; k <= base+1; k++ {
		if k < 0 {
			continue
		}
		// Tails: none, one trim buffer of any drive, or two.
		var tails [][]int
		tails = append(tails, nil)
		for i := range buf.Options {
			tails = append(tails, []int{i})
			for j := i; j < len(buf.Options); j++ {
				tails = append(tails, []int{i, j})
			}
		}
		for _, tail := range tails {
			total := float64(k) * slow
			for _, d := range tail {
				total += buf.Options[d].Delay
			}
			if e := math.Abs(total - target); e < bestErr-1e-12 {
				chain := make([]int, k, k+len(tail))
				chain = append(chain, tail...)
				bestChain, bestDelay, bestErr = chain, total, e
			}
		}
	}
	return bestChain, bestDelay
}

// repairChains tries to fix validation failures by nudging the chain on
// the violating edge, one step at a time (repairTarget, then
// nudgeChain). st and vs are the result of validating the current plan.
// It returns the remaining violations.
//
// The walk is deterministic: the chains decide the violations, and the
// violations the next step. So a step that undoes the one before it,
// putting that edge's chain and delay back, has returned the walk to a
// state it left, and it would repeat that 2-cycle until the step cap.
// The walk stops there, with that state's violations.
func (p *Plan) repairChains(st *waveState, vs []Violation) []Violation {
	last := struct {
		ei    int
		chain []int
		delay float64
		vs    []Violation
	}{ei: -1}
	for attempt := 0; attempt < 4*len(p.R.Edges)+8; attempt++ {
		if len(vs) == 0 {
			return nil
		}
		ei, lateSide := p.repairTarget(st, vs)
		if ei < 0 {
			return vs
		}
		chain, delay := slices.Clone(p.Chain[ei]), p.ChainDelay[ei]
		if !p.nudgeChain(ei, lateSide) {
			return vs
		}
		if ei == last.ei && p.ChainDelay[ei] == last.delay && slices.Equal(p.Chain[ei], last.chain) {
			return last.vs
		}
		last.ei, last.chain, last.delay, last.vs = ei, chain, delay, vs
		st, vs = p.validate(ValidateParams{})
	}
	return vs
}

// repairTarget picks the edge whose chain to nudge for the first
// repairable violation in vs, validated under the wave state st, and
// the side: late-side failures, and a fast signal that reaches a latch
// after it opens, shrink the chain; early-side failures grow it.
// Edge-level checks name the edge directly; gate-level
// wave-interference picks the gate's latest or earliest in-edge. It
// returns -1 when no violation is repairable.
func (p *Plan) repairTarget(st *waveState, vs []Violation) (target int, lateSide bool) {
	target = -1
	for _, v := range vs {
		if v.Edge >= 0 {
			switch v.Check {
			case "ff-window-hi", "latch-window-hi", "latch-transparent-early", "boundary-setup", "non-interference":
				target, lateSide = v.Edge, true
			case "ff-window-lo", "latch-window-lo", "boundary-hold":
				target, lateSide = v.Edge, false
			}
		} else if v.Gate >= 0 && v.Check == "non-interference" {
			target, lateSide = p.spreadRepairEdge(st, v.Gate)
		}
		if target >= 0 {
			break
		}
	}
	return target, lateSide
}

// nudgeChain grows edge target's chain by one fastest buffer, or, on the
// late side, shrinks it by removing or weakening its last buffer. It
// reports false when the chain to shrink is empty.
func (p *Plan) nudgeChain(target int, lateSide bool) bool {
	buf := p.R.Lib.Cell("BUF")
	fastest := buf.Options[len(buf.Options)-1].Delay
	ch := p.Chain[target]
	if !lateSide {
		p.Chain[target] = append(ch, len(buf.Options)-1)
		p.ChainDelay[target] += fastest
		return true
	}
	if len(ch) == 0 {
		return false // nothing to shrink here
	}
	// Remove or weaken the last buffer.
	last := ch[len(ch)-1]
	delta := buf.Options[last].Delay
	if delta > fastest+valTol {
		ch[len(ch)-1] = len(buf.Options) - 1
		delta -= fastest
	} else {
		ch = ch[:len(ch)-1]
	}
	p.Chain[target] = ch
	p.ChainDelay[target] -= delta
	return true
}

// spreadRepairEdge chooses which in-edge of a gate to nudge to shrink its
// wave spread under the wave state st: the latest in-edge if its chain
// overshoots the requested delay (shrink it), otherwise the earliest
// in-edge (grow it).
func (p *Plan) spreadRepairEdge(st *waveState, gi int) (edge int, lateSide bool) {
	if st == nil {
		return -1, false
	}
	lateEdge, earlyEdge := -1, -1
	lateVal, earlyVal := 0.0, 0.0
	for _, ei := range p.R.sched.in(gi) {
		if lateEdge == -1 || st.oLate[ei] > lateVal {
			lateEdge, lateVal = ei, st.oLate[ei]
		}
		if earlyEdge == -1 || st.oEarly[ei] < earlyVal {
			earlyEdge, earlyVal = ei, st.oEarly[ei]
		}
	}
	if lateEdge >= 0 && p.ChainDelay[lateEdge] > p.XiReq[lateEdge]+valTol && len(p.Chain[lateEdge]) > 0 {
		return lateEdge, true
	}
	return earlyEdge, false
}

// replaceBuffers is the paper's Section 5.4: long buffer chains are
// replaced by sequential delay units when the exact model still validates,
// reducing area. A pass tries one unit kind, latches when the options
// allow them and flip-flops otherwise (DESIGN.md §5 has the measured
// reason). Chains are visited largest-area first, each trying the phases
// in order until one fits; each try runs on a copy of the plan
// (tryUnitAt), and the plan adopts the copy only when the re-derived
// buffer chains leave a net area saving. A solver error, cancellation
// included, ends the pass and the plan must be discarded.
func (p *Plan) replaceBuffers(ctx context.Context) (replaced int, err error) {
	kind := UnitFF
	if p.Opts.UseLatches {
		kind = UnitLatch
	}
	rp := &replacePass{p: p, cands: p.replaceCandidates(kind)}
	for _, cd := range rp.cands {
		// Every try on this edge starts from the same plan, so its fast
		// signal's arrival without the chain is computed once.
		st, vs := p.propagate(p.env(ValidateParams{}))
		if st == nil || len(vs) > 0 {
			continue
		}
		early := st.wEarly[cd.ei] - p.ChainDelay[cd.ei]*p.Opts.Rl
		var q *Plan
		for _, ph := range p.Opts.Phases {
			if q, err = rp.tryUnitAt(ctx, cd.ei, early, kind, ph); err != nil {
				return 0, err
			} else if q != nil {
				break
			}
		}
		// The unit may fit while the re-derived buffer chains grew
		// elsewhere: adopt the copy only on a net saving.
		if q != nil && q.InsertedArea() < p.InsertedArea() {
			*p = *q
			replaced++
		}
	}
	return replaced, nil
}

// replaceCand is an edge replacement tries, with its chain's area.
type replaceCand struct {
	ei   int
	area float64
}

// replaceCandidates lists the edges without a unit whose buffer chain
// outweighs a unit of the given kind, largest chain area first, ties in
// edge order.
func (p *Plan) replaceCandidates(kind UnitKind) []replaceCand {
	buf := p.R.Lib.Cell("BUF")
	unit := p.R.unitArea(kind)
	var cands []replaceCand
	for ei := range p.R.Edges {
		a := 0.0
		for _, d := range p.Chain[ei] {
			a += buf.Options[d].Area
		}
		if p.Unit[ei].Kind == UnitNone && a > unit {
			cands = append(cands, replaceCand{ei, a})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].area > cands[j].area })
	return cands
}

// replacePass is one replaceBuffers pass: its plan, its candidates and
// its repair twin, which answers the tries' yes/no questions (DESIGN.md
// §6). The twin is a probe on the try's repair model, except that every
// candidate edge carries the exact model's case binaries and window
// index N as columns and the objective is zero, since a verdict needs
// only phase 1. Pinned cases leave the other cases' rows relaxed by
// big-M, so the twin is feasible exactly when the try's repair LP is;
// replace_ref_test.go holds it to that.
type replacePass struct {
	p     *Plan // adoptions update it in place
	cands []replaceCand
	twin  *probe // built at the pass's first repair LP
	// rest is, per candidate, the window index N is pinned at while the
	// edge holds no unit: the window of its fast signal under p when the
	// twin is built, so the relaxed case rows sit far from binding.
	rest []int
}

// fits reports whether the repair LP of the tried plan q is feasible: it
// pins every candidate's case and N in the twin to q's unit there (c_none
// at its rest window when it has none) and asks the twin. The first call
// builds the twin from the pass's plan as it stands.
func (rp *replacePass) fits(ctx context.Context, q *Plan) (bool, error) {
	if rp.twin == nil {
		p := rp.p
		st, vs := p.propagate(p.env(ValidateParams{}))
		if st == nil || len(vs) > 0 {
			return false, fmt.Errorf("core: replacement plan does not propagate")
		}
		spec := frozenSpec(p.T, p.Opts, p.Unit)
		spec.gateDelay, spec.quantMargin = p.GateDelay, p.quantMargin()
		rp.rest = make([]int, len(rp.cands))
		for i, cd := range rp.cands {
			spec.modes[cd.ei] = ModeExact
			rp.rest[i] = int(math.Floor(st.wEarly[cd.ei] / p.T))
		}
		mv, err := p.R.buildModel(spec)
		if err != nil {
			return false, err
		}
		for v := 0; v < mv.m.NumVars(); v++ {
			mv.m.SetObj(lp.VarID(v), 0)
		}
		rp.twin = &probe{mv: mv}
	}
	mv := rp.twin.mv
	for i, cd := range rp.cands {
		pl, n := q.Unit[cd.ei], rp.rest[i]
		if pl.Kind != UnitNone {
			n = pl.N
		}
		mv.m.SetBounds(mv.nv[cd.ei], float64(n), float64(n))
		for _, cv := range mv.cases[cd.ei] {
			on := 0.0
			if cv.kind == pl.Kind && (pl.Kind == UnitNone || cv.phase == pl.PhaseFrac) {
				on = 1
			}
			mv.m.SetBounds(cv.v, on, on)
		}
	}
	return rp.twin.feasible(ctx, q.R)
}

// tryUnitAt attempts to realize a unit of the given kind and phase on edge
// ei of the pass's plan p in place of its buffer chain, re-deriving buffer
// delays with a repair LP and validating. early is the arrival of the
// edge's fast signal without its chain under p. Each window index is
// tried on a fresh copy of p; the first copy that validates is returned,
// nil if none does. p itself is never modified. A repair LP the twin
// finds infeasible ends without its cold solve.
func (rp *replacePass) tryUnitAt(ctx context.Context, ei int, early float64, kind UnitKind, phaseFrac float64) (*Plan, error) {
	p := rp.p
	r := p.R
	nE := len(r.Edges)

	// Choose N from the fast signal's early arrival: the window index it
	// would fall into. Window nGuess+1 fits once the repair LP pads the
	// edge to reach it. Window nGuess-1 closes before the signal arrives;
	// only shorter chains upstream could make it fit, and the repair LP
	// never found such a fit on the suite, so it is not tried.
	nGuess := int(math.Floor((early - phaseFrac*p.T) / p.T))

	for _, n := range []int{nGuess, nGuess + 1} {
		q := p.clone()
		q.Unit[ei] = Placement{Kind: kind, PhaseFrac: phaseFrac, N: n}
		q.Chain[ei], q.ChainDelay[ei] = nil, 0

		// Cheap probe first: if the direct swap already validates, no
		// repair LP is needed.
		if vs := q.Validate(); len(vs) == 0 {
			return q, nil
		}
		if ok, err := rp.fits(ctx, q); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		spec := frozenSpec(q.T, q.Opts, q.Unit)
		spec.gateDelay, spec.quantMargin = q.GateDelay, q.quantMargin()
		mv, sol, err := r.solveSpec(ctx, spec)
		if err != nil {
			return nil, err
		} else if sol == nil {
			continue
		}
		for i := 0; i < nE; i++ {
			q.XiReq[i] = sol.Value(mv.xi[i])
			q.Chain[i], q.ChainDelay[i] = q.buildChain(q.XiReq[i])
		}
		if st, vs := q.validate(ValidateParams{}); len(q.repairChains(st, vs)) == 0 {
			return q, nil
		}
	}
	return nil, nil
}
