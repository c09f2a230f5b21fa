package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// feasibility verdict, so they come from probes: warm solves of one
// model per realize, the model of the initial value solve, in which
// every ξ is a column. A probe only changes the bounds of those columns,
// so one basis chain runs through every probe. Values come only from
// cold solves of the model with the frozen columns dropped: one after
// the gates are discretized and one per round once its decisions are
// fixed, so the requests depend on the model alone (DESIGN.md §6).
type chainRounder struct {
	p *Plan
	// freeze holds each edge's frozen chain delay, NaN while it is free.
	freeze []float64
	// model is the probes' model: that of the initial value solve, which
	// has nothing frozen, so every ξ is a column a probe can pin.
	model *modelVars
	// warm is the basis of the last feasible probe, or of the initial
	// value solve.
	warm *lp.Basis
}

// startRounding discretizes the gate delays downward (never slower than
// assigned, so late-arrival constraints stay safe) and runs the initial
// value solve, which gives every edge its request.
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
	if ok, err := rd.solveValues(ctx); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("core: repair LP infeasible after gate discretization")
	}
	return rd, nil
}

// probe reports whether the repair model is feasible under the current
// freezes: it bounds each ξ column of the probe model to its frozen
// delay, or to [0, ∞) while the edge is free, and solves warm from the
// last feasible probe's basis.
func (rd *chainRounder) probe(ctx context.Context) (bool, error) {
	mv := rd.model
	for ei, f := range rd.freeze {
		if math.IsNaN(f) {
			mv.m.SetBounds(mv.xi[ei], 0, lp.Inf)
		} else {
			mv.m.SetBounds(mv.xi[ei], f, f)
		}
	}
	sol, err := rd.p.R.solve(ctx, mv, rd.warm)
	if err != nil || sol == nil {
		return false, err
	}
	rd.warm = sol.Basis
	return true, nil
}

// solveValues solves the repair model cold under the current freezes and
// stores the free edges' requests in XiReq; it reports false, leaving
// XiReq alone, when the model is infeasible. The first call, with nothing
// frozen, also sets up the probes' model and basis chain.
func (rd *chainRounder) solveValues(ctx context.Context) (bool, error) {
	p := rd.p
	spec := frozenSpec(p.T, p.Opts, p.Unit)
	spec.gateDelay, spec.freezeXi = p.GateDelay, rd.freeze
	mv, sol, err := p.R.solveSpec(ctx, spec)
	if err != nil || sol == nil {
		return false, err
	}
	if rd.model == nil {
		rd.model, rd.warm = mv, sol.Basis
	}
	for ei, f := range rd.freeze {
		if math.IsNaN(f) {
			p.XiReq[ei] = sol.Value(mv.xi[ei])
		}
	}
	return true, nil
}

// round freezes every zero request and rounds the largest open ones (at
// most roundBatch) one edge at a time, trying the nearest rounding first
// and the other chainCandidates after it. It ends with the value solve
// of the round's decisions and reports done when no request was open.
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
			if ok, err := rd.probe(ctx); err != nil {
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
	if ok, err := rd.solveValues(ctx); err != nil {
		return false, err
	} else if !ok {
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
// the violating edge: late-side failures shrink the chain, early-side
// failures grow it. st and vs are the result of validating the current
// plan. It returns the remaining violations.
func (p *Plan) repairChains(st *waveState, vs []Violation) []Violation {
	buf := p.R.Lib.Cell("BUF")
	fastest := buf.Options[len(buf.Options)-1].Delay
	for attempt := 0; attempt < 4*len(p.R.Edges)+8; attempt++ {
		if len(vs) == 0 {
			return nil
		}
		// Pick the first repairable violation: edge-level checks name the
		// edge directly; gate-level wave-interference picks the gate's
		// latest or earliest in-edge.
		target := -1
		lateSide := false
		for _, v := range vs {
			if v.Edge >= 0 {
				switch v.Check {
				case "ff-window-hi", "latch-window-hi", "boundary-setup", "non-interference":
					target, lateSide = v.Edge, true
				case "ff-window-lo", "latch-window-lo", "boundary-hold", "latch-transparent-early":
					target, lateSide = v.Edge, false
				}
			} else if v.Gate >= 0 && v.Check == "non-interference" {
				target, lateSide = p.spreadRepairEdge(st, v.Gate)
			}
			if target >= 0 {
				break
			}
		}
		if target < 0 {
			return vs
		}
		ch := p.Chain[target]
		if lateSide {
			if len(ch) == 0 {
				return vs // nothing to shrink here
			}
			// Remove or weaken the last buffer.
			last := ch[len(ch)-1]
			delta := buf.Options[last].Delay
			if buf.Options[last].Delay > fastest+valTol {
				ch[len(ch)-1] = len(buf.Options) - 1
				delta -= fastest
			} else {
				ch = ch[:len(ch)-1]
			}
			p.Chain[target] = ch
			p.ChainDelay[target] -= delta
		} else {
			p.Chain[target] = append(ch, len(buf.Options)-1)
			p.ChainDelay[target] += fastest
		}
		st, vs = p.validate(ValidateParams{})
	}
	return vs
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
// reducing area. Chains are visited largest-area first; each try runs on
// a copy of the plan (tryUnitAt), and the plan adopts the copy only when
// the re-derived buffer chains leave a net area saving. Every try's
// repair LP is first asked of the pass's repair twin.
func (p *Plan) replaceBuffers(ctx context.Context) (replaced int) {
	r := p.R
	lpBudget := 64 // repair-LP invocations across all candidates
	cands := p.replaceCandidates()
	tw := newRepairTwin(p, cands)

	for _, cd := range cands {
		edgeBudget := min(8, lpBudget)
		if edgeBudget <= 0 {
			break // no try runs without budget
		}
		// Every try on this edge starts from the same plan, so its fast
		// signal's arrival without the chain is computed once.
		st, vs := p.propagate(p.env(ValidateParams{}))
		if st == nil || len(vs) > 0 {
			continue
		}
		early := st.wEarly[cd.ei] - p.ChainDelay[cd.ei]*p.Opts.Rl
		lpBudget -= edgeBudget
		var q *Plan
	kinds:
		for _, kind := range []UnitKind{UnitLatch, UnitFF} {
			if kind == UnitLatch && !p.Opts.UseLatches {
				continue
			}
			if r.unitArea(kind) >= cd.area {
				continue // no saving
			}
			for _, ph := range p.Opts.Phases {
				if edgeBudget <= 0 {
					break
				}
				if q = p.tryUnitAt(ctx, cd.ei, early, kind, ph, tw, &edgeBudget); q != nil {
					break kinds
				}
			}
		}
		lpBudget += edgeBudget // what this edge left unspent
		// The unit may fit while the re-derived buffer chains grew
		// elsewhere: adopt the copy only on a net saving.
		if q != nil && q.InsertedArea() < p.InsertedArea() {
			*p = *q
			replaced++
		}
	}
	return replaced
}

// replaceCand is an edge replacement tries, with its chain's area.
type replaceCand struct {
	ei   int
	area float64
}

// replaceCandidates lists the edges without a unit whose buffer chain
// outweighs a latch, largest chain area first.
func (p *Plan) replaceCandidates() []replaceCand {
	buf := p.R.Lib.Cell("BUF")
	var cands []replaceCand
	for ei := range p.R.Edges {
		a := 0.0
		for _, d := range p.Chain[ei] {
			a += buf.Options[d].Area
		}
		if p.Unit[ei].Kind == UnitNone && a > p.R.Lib.Latch.Area {
			cands = append(cands, replaceCand{ei, a})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].area > cands[j].area })
	return cands
}

// repairTwin answers replacement's yes/no questions (DESIGN.md §6). It
// is one model per replaceBuffers pass: the try's repair model, except
// that every candidate edge carries the exact model's case binaries and
// window index N as columns, and the objective is zero, since a verdict
// needs only phase 1. A probe pins each candidate's case and N by their
// bounds to the unit the tried plan has there (c_none at a rest window
// when it has none), so every probe of the pass solves one model warm
// along one basis chain. Pinned cases leave the other cases' rows
// relaxed by big-M, so the twin is feasible exactly when the try's
// repair LP is; replace_ref_test.go holds it to that.
type repairTwin struct {
	p     *Plan // the pass's plan; adoptions update it in place
	cands []int // candidate edges
	// rest is, per candidate, the window index N is pinned at while the
	// edge holds no unit: the window of its fast signal under p when the
	// twin is built, so the relaxed case rows sit far from binding.
	rest []int
	mv   *modelVars // built at the first probe
	warm *lp.Basis  // the basis the last probe ended on
}

// newRepairTwin returns the repair twin of a replacement pass over p's
// candidates cands; its model is built at the first probe.
func newRepairTwin(p *Plan, cands []replaceCand) *repairTwin {
	tw := &repairTwin{p: p, cands: make([]int, len(cands))}
	for i, cd := range cands {
		tw.cands[i] = cd.ei
	}
	return tw
}

// build builds the twin's model from the pass's plan as it stands.
func (tw *repairTwin) build() error {
	p := tw.p
	st, vs := p.propagate(p.env(ValidateParams{}))
	if st == nil || len(vs) > 0 {
		return fmt.Errorf("core: replacement plan does not propagate")
	}
	spec := frozenSpec(p.T, p.Opts, p.Unit)
	spec.gateDelay, spec.quantMargin = p.GateDelay, p.quantMargin()
	tw.rest = make([]int, len(tw.cands))
	for i, ei := range tw.cands {
		spec.modes[ei] = ModeExact
		tw.rest[i] = int(math.Floor(st.wEarly[ei] / p.T))
	}
	mv, err := p.R.buildModel(spec)
	if err != nil {
		return err
	}
	for v := 0; v < mv.m.NumVars(); v++ {
		mv.m.SetObj(lp.VarID(v), 0)
	}
	tw.mv = mv
	return nil
}

// probe reports whether the repair LP of the tried plan q is feasible:
// it pins every candidate of the twin to q's unit there and solves warm
// from the basis the last probe ended on, feasible or not. A failed
// solve (cancelled, or out of iterations) counts as infeasible, as it
// does for the repair LP.
func (tw *repairTwin) probe(ctx context.Context, q *Plan) bool {
	if tw.mv == nil && tw.build() != nil {
		return false
	}
	mv := tw.mv
	for i, ei := range tw.cands {
		pl, n := q.Unit[ei], tw.rest[i]
		if pl.Kind != UnitNone {
			n = pl.N
		}
		mv.m.SetBounds(mv.nv[ei], float64(n), float64(n))
		for _, cv := range mv.cases[ei] {
			on := 0.0
			if cv.kind == pl.Kind && (pl.Kind == UnitNone || cv.phase == pl.PhaseFrac) {
				on = 1
			}
			mv.m.SetBounds(cv.v, on, on)
		}
	}
	sol, err := mv.m.SolveOpts(ctx, lp.SolveOptions{Warm: tw.warm})
	q.R.addSolverStats(sol)
	if err != nil || sol == nil {
		return false
	}
	if sol.Basis != nil {
		tw.warm = sol.Basis
	}
	return sol.Status == lp.Optimal
}

// tryUnitAt attempts to realize a unit of the given kind and phase on edge
// ei in place of its buffer chain, re-deriving buffer delays with a repair
// LP and validating. early is the arrival of the edge's fast signal
// without its chain under p. Each window index is tried on a fresh copy
// of p; the first copy that validates is returned, nil if none does. p
// itself is never modified. A window whose repair LP the twin tw finds
// infeasible ends without the LP's cold solve; it still spends budget.
func (p *Plan) tryUnitAt(ctx context.Context, ei int, early float64, kind UnitKind, phaseFrac float64, tw *repairTwin, lpBudget *int) *Plan {
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
			return q
		}
		if *lpBudget <= 0 {
			continue
		}
		*lpBudget--
		if !tw.probe(ctx, q) {
			continue
		}
		spec := frozenSpec(q.T, q.Opts, q.Unit)
		spec.gateDelay, spec.quantMargin = q.GateDelay, q.quantMargin()
		mv, sol, err := r.solveSpec(ctx, spec)
		if err != nil || sol == nil {
			continue
		}
		for i := 0; i < nE; i++ {
			q.XiReq[i] = sol.Value(mv.xi[i])
			q.Chain[i], q.ChainDelay[i] = q.buildChain(q.XiReq[i])
		}
		if st, vs := q.validate(ValidateParams{}); len(q.repairChains(st, vs)) == 0 {
			return q
		}
	}
	return nil
}
