package bench

import (
	"fmt"

	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// Lane widths of the checks: vsync's and the service's 64 for the checks
// that follow an optimization, and 1024 (16 words) for verify-wide,
// where the simulators are the subject.
const (
	checkLanes  = 64
	verifyLanes = 1024
)

// runFlow measures the one-shot flow a vsync user runs: the
// retiming&sizing baseline, the period search with buffer replacement,
// and a 64-lane equivalence check, cold on every circuit in every round.
func runFlow(r *run) error {
	type input struct {
		spec  gen.Spec
		c     *netlist.Circuit
		stims [][][]bool
	}
	inputs, err := setUp(r, func(sp int) ([]input, error) {
		var in []input
		for i, s := range r.cfg.flow {
			c, err := r.generate(s, s.Name, sp)
			if err != nil {
				return nil, err
			}
			in = append(in, input{s, c, stimulus(c, r.opts.Seed, uint64(i), checkLanes)})
		}
		return in, nil
	}, nil)
	if err != nil {
		return err
	}
	for k := 0; k < count(r.opts.Seconds, r.cfg.flowRoundsPerS); k++ {
		for _, in := range inputs {
			trace := fmt.Sprintf("%s#%d", in.spec.Name, k)
			var res *core.Result
			r.op(trace, func(sp int) error {
				base, err := r.baseline(in.c.Clone(), trace, sp)
				if err != nil {
					return err
				}
				if res, err = r.optimize(base, trace, sp); err != nil {
					return err
				}
				return r.verify(base, res.Circuit, res.BaselinePeriod, res.Period, warmup(res), in.stims, trace, sp)
			}, func(int) error {
				if vs := res.Plan.Validate(); len(vs) > 0 {
					return fmt.Errorf("plan invalid: %v", vs[0])
				}
				return nil
			})
			if res != nil && k == 0 {
				r.qorOf(res)
			}
		}
	}
	return nil
}

// runECO measures incremental re-optimization: a fixed script of
// single-gate resizes applied one at a time to a live session on the
// retimed and sized circuit. Edits accumulate, so the held period
// drifts as it would in a real ECO stream. After each edit, outside the
// clock, the session's circuit is checked against the new result.
func runECO(r *run) error {
	type state struct {
		sess   *core.Session
		script []netlist.Edit
	}
	st, err := setUp(r, func(sp int) (*state, error) {
		s := r.cfg.eco
		c, err := r.generate(s, s.Name, sp)
		if err != nil {
			return nil, err
		}
		base, err := r.baseline(c, s.Name, sp)
		if err != nil {
			return nil, err
		}
		sess, err := r.newSession(base, s.Name, sp)
		if err != nil {
			return nil, err
		}
		return &state{sess, resizeScript(sess.Circuit, r.lib, count(r.opts.Seconds, r.cfg.ecoEditsPerS))}, nil
	}, nil)
	if err != nil {
		return err
	}
	for i, e := range st.script {
		trace := fmt.Sprintf("edit%d", i)
		var res *core.Result
		r.op(trace, func(sp int) (err error) {
			res, err = r.reoptimize(st.sess, e, trace, sp)
			return err
		}, func(sp int) error {
			c := st.sess.Circuit
			return r.verify(c, res.Circuit, res.BaselinePeriod, res.Period, warmup(res),
				stimulus(c, r.opts.Seed, uint64(i), checkLanes), trace, sp)
		})
	}
	r.qorOf(st.sess.Result)
	return nil
}

// runVerify measures the equivalence check alone: wide checks of
// optimized circuits against their baselines, each on fresh seeded
// stimulus, with flagged lanes re-confirmed on the event engine.
func runVerify(r *run) error {
	type pair struct {
		name string
		base *netlist.Circuit
		res  *core.Result
	}
	pairs, err := setUp(r, func(sp int) ([]pair, error) {
		var ps []pair
		for _, s := range r.cfg.verify {
			c, err := r.generate(s, s.Name, sp)
			if err != nil {
				return nil, err
			}
			base, err := r.baseline(c, s.Name, sp)
			if err != nil {
				return nil, err
			}
			res, err := r.optimize(base, s.Name, sp)
			if err != nil {
				return nil, err
			}
			ps = append(ps, pair{s.Name, base, res})
		}
		return ps, nil
	}, nil)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		r.qorOf(p.res)
	}
	for k := 0; k < count(r.opts.Seconds, r.cfg.verifyChecksPerS); k++ {
		p := pairs[k%len(pairs)]
		trace := fmt.Sprintf("%s#%d", p.name, k)
		stims := stimulus(p.base, r.opts.Seed, uint64(k), verifyLanes)
		r.op(trace, func(sp int) error {
			return r.verify(p.base, p.res.Circuit, p.res.BaselinePeriod, p.res.Period, warmup(p.res), stims, trace, sp)
		}, nil)
	}
	return nil
}
