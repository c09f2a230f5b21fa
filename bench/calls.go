package bench

import (
	"fmt"
	"time"

	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
	"virtualsync/internal/sizing"
)

// This file holds the benchmark's calls into each layer. Every call runs
// under a span named <layer>.<call>, so the traced run can split time by
// layer from outside the program.

// stepFrac is the paper's period-search step, as vsync and the service
// default to.
const stepFrac = 0.005

func (r *run) generate(s gen.Spec, trace string, parent int) (*netlist.Circuit, error) {
	sp := r.tr.Begin("gen.generate", trace, parent)
	c, err := gen.Generate(s)
	r.tr.End(sp)
	return c, err
}

// baseline runs the paper's retiming&sizing baseline the way vsync and
// the service do: c is sized in place, retimed, and the retimed copy is
// sized again and returned.
func (r *run) baseline(c *netlist.Circuit, trace string, parent int) (*netlist.Circuit, error) {
	sp := r.tr.Begin("sizing.size", trace, parent)
	_, err := sizing.Size(c, r.lib)
	r.tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	sp = r.tr.Begin("retime.retime", trace, parent)
	rt, _, err := retime.Retime(c, r.lib)
	r.tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("retiming: %w", err)
	}
	sp = r.tr.Begin("sizing.size", trace, parent)
	_, err = sizing.Size(rt, r.lib)
	r.tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("post-retiming sizing: %w", err)
	}
	return rt, nil
}

// probes turns the period search's progress events into spans: each
// core.probe runs from the previous event (or the call) to its own
// event, and core.replace from the replace event to the call's return.
type probes struct {
	r       *run
	trace   string
	parent  int
	last    time.Time
	prev    lp.Stats
	replace time.Time
}

func (r *run) probes(trace string, parent int) *probes {
	return &probes{r: r, trace: trace, parent: parent, last: time.Now()}
}

func (p *probes) observe(ev core.ProgressEvent) {
	now := time.Now()
	if ev.Stage == "replace" {
		p.replace = now
	} else {
		p.r.add("core."+ev.Stage+"_count", 1)
		if ev.Feasible {
			p.r.add("core.feasible", 1)
		}
		p.r.tr.Span("core.probe", p.trace, p.parent, p.last, now, "stage", ev.Stage, "T", ev.T,
			"feasible", ev.Feasible, "pivots", ev.Solver.Pivots()-p.prev.Pivots(), "bnb_nodes", ev.Solver.Nodes-p.prev.Nodes)
		p.prev = ev.Solver
	}
	p.last = now
}

func (p *probes) done() {
	if !p.replace.IsZero() {
		p.r.tr.Span("core.replace", p.trace, p.parent, p.replace, time.Now())
	}
}

// optimize runs the paper's period search with buffer replacement.
func (r *run) optimize(c *netlist.Circuit, trace string, parent int) (*core.Result, error) {
	sp := r.tr.Begin("core.optimize", trace, parent)
	pr := r.probes(trace, sp)
	res, err := core.OptimizeObserved(r.ctx, c, r.lib, core.DefaultOptions(), stepFrac, pr.observe)
	pr.done()
	r.tr.End(sp)
	if err != nil {
		return nil, err
	}
	r.addSolver(res.Solver)
	return res, nil
}

// newSession runs the same search and keeps the state for ECO edits.
func (r *run) newSession(c *netlist.Circuit, trace string, parent int) (*core.Session, error) {
	sp := r.tr.Begin("core.new_session", trace, parent)
	pr := r.probes(trace, sp)
	s, err := core.NewSession(r.ctx, c, r.lib, core.DefaultOptions(), stepFrac, pr.observe)
	pr.done()
	r.tr.End(sp)
	if err != nil {
		return nil, err
	}
	r.addSolver(s.Result.Solver)
	return s, nil
}

// reoptimize applies one edit to the session incrementally.
func (r *run) reoptimize(s *core.Session, e netlist.Edit, trace string, parent int) (*core.Result, error) {
	sp := r.tr.Begin("core.reoptimize", trace, parent)
	res, st, err := s.Reoptimize(r.ctx, []netlist.Edit{e})
	r.tr.End(sp, "edit", netlist.FormatEdit(e))
	if err != nil {
		return nil, err
	}
	r.addSolver(res.Solver)
	r.addECO(st.Probes, st.RecoverySteps, st.ConeNodes, st.Spliced, st.PlanTransferred, st.BasisTransferred, st.Fallback)
	if st.STA != nil {
		r.add("sta.arrival_recomputed", float64(st.STA.ArrivalRecomputed))
		r.add("sta.incremental", 1)
	}
	return res, nil
}

// addECO counts one incremental re-optimization, from core.ECOStats or a
// service job's ECO block.
func (r *run) addECO(probes, recovery, cone int, spliced, plan, basis, fallback bool) {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	r.add("eco.edits", 1)
	r.add("eco.probes", float64(probes))
	r.add("eco.recovery_steps", float64(recovery))
	r.add("eco.spliced", b(spliced))
	r.add("eco.plan_transfer", b(plan))
	r.add("eco.basis_transfer", b(basis))
	r.add("eco.fallback", b(fallback))
	r.mu.Lock()
	r.cones = append(r.cones, float64(cone))
	r.mu.Unlock()
}

// verify checks b against a bit-parallel over the stimulus lanes and
// re-confirms every flagged lane on the scalar event engine, which has
// the final word: the verdict rule vsync and the service follow.
func (r *run) verify(a, b *netlist.Circuit, Ta, Tb float64, warmup int, stims [][][]bool, trace string, parent int) error {
	sp := r.tr.Begin("sim.verify_lanes", trace, parent)
	lr, err := sim.VerifyEquivalenceLanes(a, b, r.lib, Ta, Tb, warmup, stims)
	r.tr.End(sp, "lanes", len(stims))
	if err != nil {
		return fmt.Errorf("equivalence: %w", err)
	}
	r.add("sim.checks", 1)
	r.add("sim.lanes", float64(lr.Lanes))
	r.add("sim.flagged_lanes", float64(lr.FlaggedLanes()))
	r.add("sim."+lr.EngineA+"_sides", 1)
	r.add("sim."+lr.EngineB+"_sides", 1)
	for l := range stims {
		if !sim.MaskHasLane(lr.Mask, l) {
			continue
		}
		sp := r.tr.Begin("sim.reconfirm", trace, parent)
		ms, err := sim.VerifyEquivalenceStim(a, b, r.lib, Ta, Tb, warmup, stims[l])
		r.tr.End(sp, "lane", l)
		r.add("sim.reconfirm_calls", 1)
		if err != nil {
			return fmt.Errorf("re-confirming lane %d: %w", l, err)
		}
		if len(ms) > 0 {
			return fmt.Errorf("not equivalent: lane %d: %d mismatches (first: %v)", l, len(ms), ms[0])
		}
	}
	return nil
}

// warmup is the number of leading cycles a check ignores: until every
// wave through a removed flip-flop has reached the outputs (the
// service's rule), and at least vsync's 8.
func warmup(res *core.Result) int {
	w := 8
	for _, e := range res.Plan.R.Edges {
		w = max(w, e.Lambda+3)
	}
	return w
}
