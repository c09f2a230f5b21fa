package core

import (
	"context"
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
// validated and locally repaired; realize reports an error when no valid
// realization is found (the caller treats the target period as
// infeasible).
func (p *Plan) realize(ctx context.Context) error {
	r := p.R
	nG, nE := len(r.Gates), len(r.Edges)

	// 1. Discretize gate delays downward (never slower than assigned, so
	// late-arrival constraints stay safe).
	p.GateDrive = make([]int, nG)
	p.GateDelay = make([]float64, nG)
	for gi, gid := range r.Gates {
		n := r.Work.Node(gid)
		drive, delay, _ := r.Lib.SlowestAtMost(n, p.GateDelayReq[gi]+1e-9)
		p.GateDrive[gi] = drive
		p.GateDelay[gi] = delay
	}

	// 2. Iterative chain rounding: a repair LP (gates and units frozen)
	// derives the free buffer delays; the largest requests are rounded to
	// realizable chains and frozen, and the LP re-solves so the remaining
	// free buffers compensate the rounding exactly. Batches that make the
	// LP infeasible fall back to freezing one edge at a time with
	// alternative roundings. A final validation plus local chain repair
	// guards the result.
	freeze := make([]float64, nE)
	for ei := range freeze {
		freeze[ei] = math.NaN()
	}
	// Each round passes the previous solve's basis as a warm start, but
	// it seldom applies: freezing an edge substitutes its delay as a
	// constant and drops its ξ column, so the next model has fewer
	// columns and Basis.Compatible rejects the seed. Most repair solves
	// therefore run cold (DESIGN.md §6).
	var warm *lp.Basis
	solveFrozen := func() (*modelVars, bool, error) {
		spec := &modelSpec{
			T:         p.T,
			opts:      p.Opts,
			modes:     make([]EdgeMode, nE),
			fixed:     p.Unit,
			gateDelay: p.GateDelay,
			freezeXi:  freeze,
			warm:      warm,
		}
		for ei := range spec.modes {
			spec.modes[ei] = ModeFixed
		}
		mv, sol, err := r.solveSpec(ctx, spec)
		if err != nil || sol == nil {
			return nil, false, err
		}
		warm = sol.Basis
		for ei := 0; ei < nE; ei++ {
			if math.IsNaN(freeze[ei]) {
				p.XiReq[ei] = sol.Value(mv.xi[ei])
			}
		}
		return mv, true, nil
	}

	const roundBatch = 8
	for iter := 0; iter <= nE; iter++ {
		_, ok, err := solveFrozen()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: repair LP infeasible after gate discretization (round %d)", iter)
		}
		// Freeze zero requests immediately; collect the rest.
		type req struct {
			ei int
			xi float64
		}
		var open []req
		for ei := 0; ei < nE; ei++ {
			if !math.IsNaN(freeze[ei]) {
				continue
			}
			if p.XiReq[ei] <= valTol {
				freeze[ei] = 0
				p.Chain[ei], p.ChainDelay[ei] = nil, 0
				continue
			}
			open = append(open, req{ei, p.XiReq[ei]})
		}
		if len(open) == 0 {
			break
		}
		sort.Slice(open, func(i, j int) bool { return open[i].xi > open[j].xi })
		if len(open) > roundBatch {
			open = open[:roundBatch]
		}
		for _, rq := range open {
			chain, delay := p.buildChainNearest(rq.xi)
			p.Chain[rq.ei], p.ChainDelay[rq.ei] = chain, delay
			freeze[rq.ei] = delay
		}
		if _, ok, err := solveFrozen(); err != nil {
			return err
		} else if ok {
			continue
		}
		// Batch failed: revert and freeze one edge at a time, trying the
		// nearest rounding first and the round-up chain second.
		for _, rq := range open {
			freeze[rq.ei] = math.NaN()
		}
		for _, rq := range open {
			frozen := false
			for _, cand := range p.chainCandidates(rq.xi) {
				freeze[rq.ei] = cand.delay
				if _, ok, err := solveFrozen(); err != nil {
					return err
				} else if ok {
					p.Chain[rq.ei], p.ChainDelay[rq.ei] = cand.chain, cand.delay
					frozen = true
					break
				}
			}
			if !frozen {
				return fmt.Errorf("core: buffer chain on edge %d not realizable (request %.2f)", rq.ei, rq.xi)
			}
		}
	}
	if st, vs := p.validate(ValidateParams{}); len(vs) > 0 {
		if vs = p.repairChains(st, vs); len(vs) > 0 {
			return fmt.Errorf("core: realization invalid after repair: %v", vs[0])
		}
	}
	return nil
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
			if e := mathAbs(total - target); e < bestErr-1e-12 {
				chain := make([]int, k, k+len(tail))
				chain = append(chain, tail...)
				bestChain, bestDelay, bestErr = chain, total, e
			}
		}
	}
	return bestChain, bestDelay
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
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
// reducing area. Chains are visited largest-area first; each successful
// replacement re-derives the remaining buffer delays with a repair LP.
func (p *Plan) replaceBuffers(ctx context.Context) (replaced int) {
	r := p.R
	lpBudget := 64 // repair-LP invocations across all candidates
	buf := r.Lib.Cell("BUF")
	chainArea := func(ei int) float64 {
		a := 0.0
		for _, d := range p.Chain[ei] {
			a += buf.Options[d].Area
		}
		return a
	}

	type cand struct {
		ei   int
		area float64
	}
	var cands []cand
	for ei := range r.Edges {
		if p.Unit[ei].Kind == UnitNone {
			if a := chainArea(ei); a > r.Lib.Latch.Area {
				cands = append(cands, cand{ei, a})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].area > cands[j].area })

	for _, cd := range cands {
		ei := cd.ei
		savedUnit := p.Unit[ei]
		savedChain := p.Chain[ei]
		savedDelay := p.ChainDelay[ei]
		savedXi := append([]float64(nil), p.XiReq...)
		savedChains := make([][]int, len(p.Chain))
		for i, ch := range p.Chain {
			savedChains[i] = append([]int(nil), ch...)
		}
		savedDelays := append([]float64(nil), p.ChainDelay...)
		areaBefore := p.InsertedArea()

		done := false
		edgeBudget := 8
		if edgeBudget > lpBudget {
			edgeBudget = lpBudget
		}
		for _, kind := range []UnitKind{UnitLatch, UnitFF} {
			if kind == UnitLatch && !p.Opts.UseLatches {
				continue
			}
			unitArea := r.Lib.FF.Area
			if kind == UnitLatch {
				unitArea = r.Lib.Latch.Area
			}
			if unitArea >= cd.area {
				continue // no saving
			}
			for _, ph := range p.Opts.Phases {
				if edgeBudget <= 0 {
					break
				}
				spent := edgeBudget
				ok := p.tryUnitAt(ctx, ei, kind, ph, &edgeBudget)
				lpBudget -= spent - edgeBudget
				if ok {
					replaced++
					done = true
					break
				}
			}
			if done {
				break
			}
		}
		if done && p.InsertedArea() >= areaBefore {
			// The unit fits but the re-derived buffer chains grew
			// elsewhere: no net saving, so revert the whole move.
			done = false
			replaced--
		}
		if !done {
			p.Unit[ei] = savedUnit
			p.Chain[ei] = savedChain
			p.ChainDelay[ei] = savedDelay
			p.XiReq = savedXi
			copy(p.Chain, savedChains)
			copy(p.ChainDelay, savedDelays)
		}
	}
	return replaced
}

// tryUnitAt attempts to realize a unit of the given kind and phase on edge
// ei in place of its buffer chain, re-deriving buffer delays with a repair
// LP and validating. On failure the plan is restored by the caller.
func (p *Plan) tryUnitAt(ctx context.Context, ei int, kind UnitKind, phaseFrac float64, lpBudget *int) bool {
	r := p.R
	nE := len(r.Edges)

	// Choose N from the current early arrival at the edge (without its
	// chain): the window index the fast signal would fall into.
	st, vsp := p.propagate(p.env(ValidateParams{}))
	if st == nil || len(vsp) > 0 {
		return false
	}
	probe := st.wEarly[ei] - p.ChainDelay[ei]*p.Opts.Rl // arrival without the chain
	nGuess := int(math.Floor((probe - phaseFrac*p.T) / p.T))

	savedUnit := p.Unit[ei]
	savedChain, savedDelay := p.Chain[ei], p.ChainDelay[ei]
	savedXi := append([]float64(nil), p.XiReq...)
	savedChains := make([][]int, nE)
	savedDelays := make([]float64, nE)
	copy(savedDelays, p.ChainDelay)
	for i := range savedChains {
		savedChains[i] = p.Chain[i]
	}

	for _, n := range []int{nGuess, nGuess - 1, nGuess + 1} {
		p.Unit[ei] = Placement{Kind: kind, PhaseFrac: phaseFrac, N: n}
		p.Chain[ei], p.ChainDelay[ei] = nil, 0

		// Cheap probe first: if the direct swap already validates, no
		// repair LP is needed.
		if vs := p.Validate(); len(vs) == 0 {
			return true
		}
		if *lpBudget <= 0 {
			p.Unit[ei] = savedUnit
			p.Chain[ei], p.ChainDelay[ei] = savedChain, savedDelay
			continue
		}
		*lpBudget--
		spec := &modelSpec{
			T:           p.T,
			opts:        p.Opts,
			modes:       make([]EdgeMode, nE),
			fixed:       p.Unit,
			gateDelay:   p.GateDelay,
			quantMargin: p.quantMargin(),
		}
		for i := range spec.modes {
			spec.modes[i] = ModeFixed
		}
		mv, sol, err := r.solveSpec(ctx, spec)
		if err == nil && sol != nil {
			for i := 0; i < nE; i++ {
				p.XiReq[i] = sol.Value(mv.xi[i])
				p.Chain[i], p.ChainDelay[i] = p.buildChain(p.XiReq[i])
			}
			st, vs := p.validate(ValidateParams{})
			if len(vs) == 0 {
				return true
			}
			if vs := p.repairChains(st, vs); len(vs) == 0 {
				return true
			}
		}
		// Restore and try the next window.
		p.Unit[ei] = savedUnit
		copy(p.XiReq, savedXi)
		for i := range savedChains {
			p.Chain[i] = savedChains[i]
			p.ChainDelay[i] = savedDelays[i]
		}
		p.Chain[ei], p.ChainDelay[ei] = savedChain, savedDelay
	}
	return false
}
