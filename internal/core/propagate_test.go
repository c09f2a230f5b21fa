package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
)

// suitePlan is one paper-suite circuit's plan before and after the
// Section 5.4 buffer-replacement pass, produced exactly as Optimize
// produces them.
type suitePlan struct {
	name       string
	pre, final *Plan
}

var (
	suitePlansOnce sync.Once
	suitePlansVal  []suitePlan
	suitePlansErr  error
)

// suitePlans optimizes s5378, mem_ctrl, systemcdes and ac97_ctrl once
// per test binary: the period search without replacement gives the
// pre-replacement plan, and re-running its period with replacement (as
// OptimizeObserved does) gives the final plan.
func suitePlans(tb testing.TB) []suitePlan {
	tb.Helper()
	suitePlansOnce.Do(func() {
		ctx := context.Background()
		lib := celllib.Default()
		for _, name := range []string{"s5378", "mem_ctrl", "systemcdes", "ac97_ctrl"} {
			spec, _ := gen.SpecByName(name)
			c, err := gen.Generate(spec)
			if err != nil {
				suitePlansErr = err
				return
			}
			base, _, err := retime.Baseline(c, lib)
			if err != nil {
				suitePlansErr = err
				return
			}
			opts := DefaultOptions()
			opts.BufferReplace = false
			pre, err := OptimizeObserved(ctx, base, lib, opts, 0.005, nil)
			if err != nil {
				suitePlansErr = fmt.Errorf("%s: %v", name, err)
				return
			}
			r := pre.Plan.R
			opts.BufferReplace = true
			final, err := solvePeriod(ctx, r, pre.Period, opts, pre.Plan)
			if err == nil && final != nil {
				_, err = final.finish(ctx, true)
			}
			if err != nil || final == nil {
				suitePlansErr = fmt.Errorf("%s: replacement rerun: %v", name, err)
				return
			}
			suitePlansVal = append(suitePlansVal, suitePlan{name, pre.Plan, final})
		}
	})
	if suitePlansErr != nil {
		tb.Fatal(suitePlansErr)
	}
	return suitePlansVal
}

// driftTol bounds the rounding drift requireSamePropagation tolerates
// between the two sweeps: far below valTol, the slack of every timing
// check.
const driftTol = 1e-9

// requireSamePropagation validates p under params with propagate and
// with the reference sweep, and requires bit-identical wave states and
// identical violation lists (propagation and constraint checks).
//
// Two departures are tolerated and reported through the results, so
// callers on optimizer output can still forbid them:
//
//   - slowRef: with TransparentLatches, a latch on a feedback ring passes
//     early arrivals through until they drop below its open edge, so the
//     number of ring turns before the ring is cut depends on the delays,
//     not only on the region's size. The reference sweep advances one
//     gate per sweep and can exhaust the nG+nE+8 bound where propagate,
//     one ring turn per sweep, settles. The reference must then reach
//     the same fixpoint under a larger bound. Without transparent
//     latches every ring is cut structurally, and both sweeps must
//     converge under the same bound.
//   - drift: both sweeps stop at the first sweep in which no value moves
//     by more than sameOrBothInf's 1e-12. Two paths of equal delay in
//     exact arithmetic can round differently and reach a gate in
//     different sweeps; when such a sub-1e-12 step is the only movement
//     of a sweep, that sweep stops, and values downstream of the step
//     keep their previous rounding. The sweeps meet those steps at
//     different times, so their results can then differ by a few ulps.
//     Every value must agree within driftTol and the violations must be
//     the same checks on the same edges and gates, with amounts within
//     driftTol.
func requireSamePropagation(t *testing.T, label string, p *Plan, params ValidateParams) (slowRef, drift bool) {
	t.Helper()
	env := p.env(params)
	bound := len(p.R.Gates) + len(p.R.Edges) + 8
	st, vs := p.propagate(env)
	ref, refVs := p.propagateRef(env, bound)
	if st != nil && ref == nil && params.TransparentLatches {
		slowRef = true
		ref, refVs = p.propagateRef(env, 64*bound)
	}
	if (st == nil) != (ref == nil) {
		t.Fatalf("%s: propagate converged=%v, reference converged=%v", label, st != nil, ref != nil)
	}
	within := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.Abs(a-b) <= driftTol
	}
	if st != nil {
		for _, f := range []struct {
			name     string
			got, ref []float64
		}{
			{"late", st.late, ref.late}, {"early", st.early, ref.early},
			{"wLate", st.wLate, ref.wLate}, {"wEarly", st.wEarly, ref.wEarly},
			{"oLate", st.oLate, ref.oLate}, {"oEarly", st.oEarly, ref.oEarly},
		} {
			if len(f.got) != len(f.ref) {
				t.Fatalf("%s: %s has %d entries, reference %d", label, f.name, len(f.got), len(f.ref))
			}
			for i := range f.got {
				if math.Float64bits(f.got[i]) == math.Float64bits(f.ref[i]) {
					continue
				}
				if !within(f.got[i], f.ref[i]) {
					t.Fatalf("%s: %s[%d] = %v, reference %v", label, f.name, i, f.got[i], f.ref[i])
				}
				drift = true
			}
		}
		vs = append(vs, p.check(st, env)...)
		refVs = append(refVs, p.check(ref, env)...)
	}
	if !drift {
		if !reflect.DeepEqual(vs, refVs) {
			t.Fatalf("%s: violations differ:\n got %v\n ref %v", label, vs, refVs)
		}
		return slowRef, drift
	}
	if len(vs) != len(refVs) {
		t.Fatalf("%s: %d violations, reference %d:\n got %v\n ref %v", label, len(vs), len(refVs), vs, refVs)
	}
	for i, v := range vs {
		w := refVs[i]
		if v.Check != w.Check || v.Edge != w.Edge || v.Gate != w.Gate || !within(v.Amount, w.Amount) {
			t.Fatalf("%s: violation %d is %v, reference %v", label, i, v, w)
		}
	}
	return slowRef, drift
}

// sampledParams draws one Monte Carlo-style delay assignment for p the
// way internal/variation does: per-gate and per-edge delays scaled by
// random factors, scaled sequential timing, unity guard bands,
// transparent latches and period T.
func sampledParams(p *Plan, rng *rand.Rand, T float64) ValidateParams {
	factor := func() float64 { return 1 + 0.08*rng.NormFloat64() }
	gd := make([]float64, len(p.GateDelay))
	for gi, d := range p.GateDelay {
		gd[gi] = d * factor()
	}
	cd := make([]float64, len(p.ChainDelay))
	for ei, d := range p.ChainDelay {
		cd[ei] = d * factor()
	}
	ff := p.R.Lib.FF.Scaled(factor())
	latch := p.R.Lib.Latch.Scaled(factor())
	return ValidateParams{
		T: T, GateDelay: gd, ChainDelay: cd, Ru: 1, Rl: 1,
		FF: &ff, Latch: &latch, TransparentLatches: true,
	}
}

// TestPropagateMatchesReference pins the scheduled sweep to the original
// all-edges sweep on real optimizer output: the pre-replacement and
// final plans of four suite circuits, under the plain validation and
// every override internal/variation uses.
func TestPropagateMatchesReference(t *testing.T) {
	for _, sp := range suitePlans(t) {
		for _, ph := range []struct {
			stage string
			p     *Plan
		}{{"pre", sp.pre}, {"final", sp.final}} {
			p := ph.p
			rng := rand.New(rand.NewSource(1))
			cases := []struct {
				name   string
				params ValidateParams
			}{
				{"plain", ValidateParams{}},
				{"unity", ValidateParams{Ru: 1, Rl: 1}},
				{"transparent", ValidateParams{Ru: 1, Rl: 1, TransparentLatches: true}},
				{"fast-T", ValidateParams{T: p.T * 0.96}},
				{"slow-T", ValidateParams{T: p.T * 1.04}},
			}
			for i := 0; i < 8; i++ {
				T := p.T * (0.95 + 0.1*rng.Float64())
				cases = append(cases, struct {
					name   string
					params ValidateParams
				}{fmt.Sprintf("sample%d", i), sampledParams(p, rng, T)})
			}
			for _, c := range cases {
				label := sp.name + "/" + ph.stage + "/" + c.name
				slowRef, drift := requireSamePropagation(t, label, p, c.params)
				if slowRef || drift {
					t.Fatalf("%s: not bit-identical (slow reference %v, rounding drift %v)", label, slowRef, drift)
				}
			}
		}
	}
}

// feedbackPlan hand-builds a two-gate ring g0 -> g1 -> g0 whose back
// edge crosses one removed flip-flop (λ=1) and carries the given unit;
// each gate has delay 4, so at T=5 the ring gains 3 per turn.
func feedbackPlan(t *testing.T, T float64, back Placement) *Plan {
	t.Helper()
	gate := func(i int) NodeRef { return NodeRef{RefGate, i} }
	c := netlist.New("ring")
	in := c.MustAdd("in", netlist.KindInput)
	g0 := c.MustAdd("g0", netlist.KindBuf, in.ID)
	g1 := c.MustAdd("g1", netlist.KindBuf, g0.ID)
	q := c.MustAdd("q", netlist.KindDFF, g1.ID)
	r := &Region{
		Work:    c,
		Lib:     paperLib(t),
		Gates:   []netlist.NodeID{g0.ID, g1.ID},
		Sources: []Source{{Node: in.ID}},
		Sinks:   []Sink{{Node: q.ID, IsFF: true}},
		Edges: []Edge{
			{From: NodeRef{RefSource, 0}, To: gate(0)},
			{From: gate(1), To: gate(0), Lambda: 1},
			{From: gate(0), To: gate(1)},
			{From: gate(1), To: NodeRef{RefSink, 0}},
		},
	}
	r.sched = newSchedule(r)
	return &Plan{
		R: r, T: T, Opts: DefaultOptions(),
		Unit:       []Placement{{}, back, {}, {}},
		ChainDelay: make([]float64, 4),
		GateDelay:  []float64{4, 4},
	}
}

// TestPropagateFeedbackConvergence covers the non-convergence bound: a
// ring whose feedback edge has no flip-flop unit must still be reported
// as a convergence failure, while the same ring cut by a flip-flop unit
// settles; both sweeps agree in every case.
func TestPropagateFeedbackConvergence(t *testing.T) {
	for _, c := range []struct {
		name     string
		back     Placement
		converge bool
	}{
		{"none", Placement{}, false},
		{"latch", Placement{Kind: UnitLatch, N: 1}, false},
		{"ff", Placement{Kind: UnitFF, N: 1}, true},
	} {
		p := feedbackPlan(t, 5, c.back)
		requireSamePropagation(t, c.name, p, ValidateParams{})
		st, vs := p.propagate(p.env(ValidateParams{}))
		if (st != nil) != c.converge {
			t.Fatalf("%s: converged=%v, want %v", c.name, st != nil, c.converge)
		}
		if !c.converge && (len(vs) != 1 || vs[0].Check != "convergence") {
			t.Fatalf("%s: want one convergence violation, got %v", c.name, vs)
		}
	}
}

// TestScheduleOrder checks the schedule of a real region: every gate's
// in-edges appear once in ascending order, the order is a permutation
// of the gates that respects every λ=0 gate-to-gate edge, and the sink
// list holds exactly the sink edges.
func TestScheduleOrder(t *testing.T) {
	r := suitePlans(t)[1].final.R
	sc := r.sched
	if len(sc.order) != len(r.Gates) {
		t.Fatalf("order has %d gates, region %d", len(sc.order), len(r.Gates))
	}
	pos := make([]int, len(r.Gates))
	for i := range pos {
		pos[i] = -1
	}
	for k, gi := range sc.order {
		if pos[gi] >= 0 {
			t.Fatalf("gate %d twice in order", gi)
		}
		pos[gi] = k
	}
	seen := 0
	for gi := range r.Gates {
		prev := -1
		for _, ei := range sc.in(gi) {
			if ei <= prev || r.Edges[ei].To != (NodeRef{RefGate, gi}) {
				t.Fatalf("gate %d: bad in-edge list %v", gi, sc.in(gi))
			}
			prev = ei
			seen++
		}
	}
	sinks := 0
	for ei, e := range r.Edges {
		switch {
		case e.To.Kind == RefSink:
			if sinks >= len(sc.sinkEdges) || sc.sinkEdges[sinks] != ei {
				t.Fatalf("sink edge %d missing", ei)
			}
			sinks++
		case e.From.Kind == RefGate && e.Lambda == 0 && pos[e.From.Idx] >= pos[e.To.Idx]:
			t.Fatalf("edge %d: gate %d scheduled after its reader %d", ei, e.From.Idx, e.To.Idx)
		}
	}
	if seen+sinks != len(r.Edges) || sinks != len(sc.sinkEdges) {
		t.Fatalf("schedule covers %d gate and %d sink edges of %d", seen, sinks, len(r.Edges))
	}
}

// FuzzPropagateVsReference generates a small circuit from fuzz-chosen
// generator parameters, extracts its region, and fills a plan with
// fuzz-chosen unit kinds, phases, window indices, chain delays and gate
// delays; propagate must match the reference sweep under the plain and
// the sampled-delay validations, bit for bit up to the two departures
// requireSamePropagation documents.
func FuzzPropagateVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 7, 5, 1, 2, 3, 9, 200, 17, 4, 33, 81, 250, 6, 12, 99})
	f.Add([]byte{11, 2, 9, 2, 3, 1, 1, 150, 64, 128, 7, 7, 7, 3, 200, 45, 0, 1, 2, 3})
	lib := celllib.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		spec := gen.Spec{
			Name:        "fuzz",
			Seed:        int64(next()<<8 | next()),
			TargetGates: 8 + next()%40,
			TargetFFs:   3 + next()%10,
			Stage1Depth: 2 + next()%5,
			Stage2Depth: 2 + next()%5,
			StageWidth:  2 + next()%2,
		}
		flags := next()
		spec.FastBypass = flags&1 != 0
		spec.Loop = flags&2 != 0
		spec.NumInputs = spec.StageWidth + next()%3
		c, err := gen.Generate(spec)
		if err != nil {
			return
		}
		r, err := Extract(c, lib, 0.5+float64(next()%51)/100)
		if err != nil {
			return
		}
		nG, nE := len(r.Gates), len(r.Edges)
		T := r.Baseline.MinPeriod * (0.4 + float64(next()%90)/100)
		p := &Plan{
			R: r, T: T, Opts: DefaultOptions(),
			Unit:       make([]Placement, nE),
			ChainDelay: make([]float64, nE),
			GateDelay:  make([]float64, nG),
		}
		for ei := range p.Unit {
			b := next()
			switch b % 4 {
			case 2:
				p.Unit[ei].Kind = UnitFF
			case 3:
				p.Unit[ei].Kind = UnitLatch
			}
			p.Unit[ei].PhaseFrac = p.Opts.Phases[(b/4)%len(p.Opts.Phases)]
			p.Unit[ei].N = (b/16)%4 - 1
			p.ChainDelay[ei] = float64(next()%32) * 1.7
		}
		for gi, gid := range r.Gates {
			lo, hi, err := lib.DelayRange(r.Work.Node(gid))
			if err != nil {
				t.Fatal(err)
			}
			p.GateDelay[gi] = lo + (hi-lo)*float64(next())/255
		}
		requireSamePropagation(t, "plain", p, ValidateParams{})
		rng := rand.New(rand.NewSource(int64(next())))
		requireSamePropagation(t, "sampled", p, sampledParams(p, rng, T*(0.9+0.2*rng.Float64())))
	})
}

// BenchmarkPlanValidate times one full validation (propagation plus
// constraint checks) of the final optimized plans of three suite
// circuits: the validator runs thousands of times per Optimize, mostly
// in Section 5.4 buffer replacement. The cpus metric records the host's
// CPU count next to the -N GOMAXPROCS suffix.
func BenchmarkPlanValidate(b *testing.B) {
	plans := suitePlans(b)
	for _, name := range []string{"mem_ctrl", "ac97_ctrl", "systemcdes"} {
		var p *Plan
		for _, sp := range plans {
			if sp.name == name {
				p = sp.final
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if vs := p.Validate(); len(vs) > 0 {
					b.Fatal(vs[0])
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
		})
	}
}
