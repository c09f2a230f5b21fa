package core

import "math"

// propagateRef is the original Jacobi validator sweep, kept verbatim as
// the differential oracle for propagate: every sweep re-evaluates all
// edges from the previous sweep's gate arrivals, then every gate by
// scanning all region edges for its in-edges (O(nG·nE) per sweep).
// propagate must reproduce its wave states and violations bit for bit,
// up to the two departures requireSamePropagation documents.
// The sweep bound is a parameter; propagate's bound is nG+nE+8.
func (p *Plan) propagateRef(env valEnv, maxIter int) (*waveState, []Violation) {
	r := p.R
	nG, nE := len(r.Gates), len(r.Edges)
	opts := p.Opts
	opts.Ru, opts.Rl = env.ru, env.rl
	T := env.T

	// All six working arrays come from one backing slice with a growing
	// stagger between sections. Six separate make() calls of equal size
	// can land on consecutive same-size-class slots — for regions whose
	// per-edge arrays fill the 4KiB class, that puts wLate/wEarly/oLate/
	// oEarly at identical page offsets, and the store→load pattern in the
	// edge loop below then pays 4K-aliasing stalls (measured ~3x on the
	// whole fixpoint, flipping with unrelated allocation history). The
	// distinct pads keep every pair of sections off a common 4KiB stride
	// no matter what nG and nE are.
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

	fromTimes := func(e Edge) (float64, float64) {
		switch e.From.Kind {
		case RefGate:
			return st.late[e.From.Idx], st.early[e.From.Idx]
		default:
			return r.sourceTimes(e.From.Idx, opts)
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for ei, e := range r.Edges {
			upL, upE := fromTimes(e)
			shift := -float64(e.Lambda) * T
			wL := upL + shift + env.cd[ei]*opts.Ru
			wE := upE + shift + env.cd[ei]*opts.Rl
			var oL, oE float64
			u := p.Unit[ei]
			phi := u.PhaseFrac * T
			n := float64(u.N)
			switch u.Kind {
			case UnitNone, UnitBuffer:
				oL, oE = wL, wE
			case UnitFF:
				oL = (n+1)*T + phi + env.ff.Tcq*opts.Ru
				oE = (n+1)*T + phi + env.ff.Tcq*opts.Rl
			case UnitLatch:
				open := n*T + phi + opts.Duty*T
				oL = math.Max(open+env.lt.Tcq*opts.Ru, wL+env.lt.Tdq*opts.Ru)
				if env.transparent && wE > open {
					oE = wE + env.lt.Tdq*opts.Rl
				} else {
					oE = open + env.lt.Tcq*opts.Rl
				}
			}
			if wL != st.wLate[ei] || wE != st.wEarly[ei] || oL != st.oLate[ei] || oE != st.oEarly[ei] {
				// -inf/+inf churn does not count as progress.
				if !sameOrBothInf(wL, st.wLate[ei]) || !sameOrBothInf(wE, st.wEarly[ei]) ||
					!sameOrBothInf(oL, st.oLate[ei]) || !sameOrBothInf(oE, st.oEarly[ei]) {
					changed = true
				}
			}
			st.wLate[ei], st.wEarly[ei] = wL, wE
			st.oLate[ei], st.oEarly[ei] = oL, oE
		}
		for gi, gid := range r.Gates {
			_ = gid
			lateIn := math.Inf(-1)
			earlyIn := math.Inf(1)
			found := false
			for ei, e := range r.Edges {
				if e.To.Kind != RefGate || e.To.Idx != gi {
					continue
				}
				found = true
				if st.oLate[ei] > lateIn {
					lateIn = st.oLate[ei]
				}
				if st.oEarly[ei] < earlyIn {
					earlyIn = st.oEarly[ei]
				}
			}
			if !found {
				continue
			}
			nl := lateIn + env.gd[gi]*opts.Ru
			ne := earlyIn + env.gd[gi]*opts.Rl
			if !sameOrBothInf(nl, st.late[gi]) || !sameOrBothInf(ne, st.early[gi]) {
				changed = true
			}
			st.late[gi], st.early[gi] = nl, ne
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
